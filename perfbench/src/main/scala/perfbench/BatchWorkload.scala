package perfbench

import org.apache.spark.sql.Dataset
import org.apache.spark.storage.StorageLevel
import org.apache.spark.util.SizeEstimator
import repro.core.OnlineSTL
import repro.streaming.{MetricEvent, OnlineSTLStreaming}

import scala.collection.mutable.ArrayBuffer

/** `fleet-hourly` and `weekly-10min`: repetitions of one
  * `OnlineSTLStreaming.decomposeBatch` job over the same persisted input.
  * Each repetition's rows are checked as the job consumes them, so the
  * check is part of the timed work; the comparison of sampled keys with
  * the reference runs after the timed loop.
  */
object BatchWorkload {
  // Warm-up jobs per set-up round: with one, the timed repetitions were
  // still getting faster (C2 still compiling).
  val WarmJobs = 2

  def input(ctx: Ctx): Dataset[MetricEvent] = {
    val spark = ctx.spark
    import spark.implicits._
    val gen = ctx.gen
    val k = ctx.shape.keys.toLong
    // Time-major order, as a fleet is scraped: all keys at t, then t + 1.
    spark.range(0, k * ctx.shape.points, 1, 4 * ctx.nproc)
      .map { id => val t = id / k; val s = id % k; MetricEvent(s, t, gen.value(s, t)) }
  }

  private def decompose(ctx: Ctx, in: Dataset[MetricEvent], spec: CheckSpec): Array[Summary] =
    OnlineSTLStreaming.decomposeBatch(in, ctx.shape.periods.toSeq).rdd
      .mapPartitions(rows => Iterator(Checks.summarize(spec, rows))).collect()

  def run(ctx: Ctx): Result = {
    val sc = ctx.spark.sparkContext
    val shape = ctx.shape
    val events = shape.keys.toLong * shape.points
    val spec = CheckSpec(ctx.gen, shape.keys, 0, shape.points, ctx.sampledKeys,
      1e-9 * ctx.gen.scale(shape.points))
    ctx.say(s"events_per_repetition=$events points_per_key=${shape.points} sampled_keys=${spec.sampled.mkString(",")}")

    // Set-up rounds: generate and persist the input, then warm up on the timed job.
    var in: Dataset[MetricEvent] = null
    val (setup, _) = ctx.setUp { _ =>
      if (in != null) in.unpersist(blocking = true)
      in = input(ctx).persist(StorageLevel.MEMORY_ONLY)
      require(in.count() == events)
      for (_ <- 0 until WarmJobs) decompose(ctx, in, spec)
    }

    val listener = if (ctx.traced) {
      val l = new OpListener(p => Option(p.getProperty("spark.jobGroup.id")), _.endsWith("-traced"))
      sc.addSparkListener(l); Some(l)
    } else None

    // Timed loop. In a traced run every other repetition is traced, so the
    // two halves give the tracing overhead.
    final case class Rep(op: String, seconds: Double, cpuSeconds: Double, outcome: Checks.Outcome, allocBytes: Long,
                         probe: Int)
    val reps = ArrayBuffer.empty[Rep]
    val probes = new HostProbes(ctx.nproc)
    val t0 = Stats.now()
    while (reps.isEmpty || Stats.secondsSince(t0) < ctx.seconds) {
      val traced = ctx.traced && reps.size % 2 == 0
      val op = s"rep-${reps.size}" + (if (traced) "-traced" else "")
      sc.setJobGroup(op, op)
      val (secs, cpu, alloc, parts) = ctx.tracer.span(ctx.workloadSpan, if (traced) "rep" else "rep-untraced") { span =>
        val a0 = Alloc.allThreads()
        val c0 = Stats.cpuSeconds()
        val r0 = Stats.now()
        val parts = decompose(ctx, in, spec)
        val secs = Stats.secondsSince(r0)
        val cpu = Stats.cpuSeconds() - c0
        val alloc = Alloc.since(a0)
        listener.foreach { l => l.awaitJobs(sc.statusTracker.getJobIdsForGroup(op).toSeq); l.addSpans(ctx.tracer, op, span) }
        (secs, cpu, alloc, parts)
      }
      sc.clearJobGroup()
      reps += Rep(op, secs, cpu, new Checks.Outcome(spec, parts.toSeq), alloc, probes.after())
    }
    probes.close()

    // Compare sampled keys with the reference, then count failed events.
    val refs = spec.sampled.map(s => s -> Reference.decompose(ctx.gen.series(s, shape.points), shape.periods)).toMap
    val compared = reps.map(r => Checks.compareWithReference(spec, r.outcome, refs)).sum
    val failed = reps.map(_.outcome.failed).sum
    // In a traced run the figures come from its untraced repetitions.
    val untraced = Some(reps.filterNot(_.op.endsWith("-traced"))).filter(_.nonEmpty).getOrElse(reps)
    // Summed, not a median: a young collection falls into some repetitions
    // and not others, and the sum charges each its share.
    val cpuPerEvent = untraced.map(_.cpuSeconds).sum * 1e6 / (events.toDouble * untraced.size)
    val normCpuPerEvent = untraced.map(r => r.cpuSeconds * probes.scale(r.probe)).sum * 1e6 / (events.toDouble * untraced.size)
    val allocPerEvent = untraced.map(_.allocBytes.toDouble).sum / (events.toDouble * untraced.size)
    val wallEps = Stats.median(untraced.map(events / _.seconds).toSeq)
    ctx.say(s"repetitions=${reps.size} rows_compared_with_reference=$compared failed_events=$failed " +
      s"rep_seconds=${reps.map(r => f"${r.seconds}%.3f").mkString(",")} rep_cpu_s=${reps.map(r => f"${r.cpuSeconds}%.2f").mkString(",")}")
    ctx.say(f"wall-clock (unbounded, follows the host's load): events_per_s=$wallEps%.0f job_s_median=${events / wallEps}%.3f")
    ctx.say(f"raw cpu_us_per_event=$cpuPerEvent%.4f norm_cpu_us_per_event=$normCpuPerEvent%.4f setup_cpu_s=$setup%.3f " +
      f"host_probe_ns=$probes (reference ${HostProbe.RefNs}%.0f)")

    var sideOk = true
    val perLayer = if (!ctx.traced) Nil else {
      val tr = reps.filter(_.op.endsWith("-traced"))
      val untr = reps.filterNot(_.op.endsWith("-traced"))
      val overhead = if (untr.isEmpty) 0.0 else
        100.0 * (Stats.median(tr.map(_.cpuSeconds).toSeq) / Stats.median(untr.map(_.cpuSeconds).toSeq) - 1.0)
      val (scan, keyed) = floors(ctx, in, events)
      in.unpersist(blocking = true)
      val (state, ok) = StreamWorkload.sideProbe(ctx)
      sideOk = ok
      val core = CoreProbe.run(ctx.gen, shape.points)
      core.map { case (n, v, u) => Metric(n, v, u) } ++ Seq(
        Metric("dataflow.scan_eps", scan, "1/s"),
        Metric("dataflow.keyed_shuffle_eps", keyed, "1/s"),
        Metric("dataflow.job_eps", wallEps, "1/s"),
      ) ++ listener.get.dataflowMetrics(tr.map(_.op).toSeq, events) ++ Seq(
        Metric("run.cpu_us_per_event", cpuPerEvent, "us"),
        Metric("run.norm_cpu_us_per_event", normCpuPerEvent, "us"),
        Metric("trace.overhead_pct", overhead, "%"),
      ) ++ state
    }

    Result(attempted = events * reps.size, failed = failed, correct = sideOk,
      endToEnd = Seq(
        Metric("alloc_bytes_per_event", allocPerEvent, "bytes"),
        Metric("state_bytes_per_key", stateBytesPerKey(ctx, spec.sampled), "bytes"),
        Metric("setup_s", setup * probes.setupScale, "s")),
      perLayer = perLayer)
  }

  /** The in-memory size of the state the batch path builds for one key,
    * after the key's whole series: the median over the sampled keys.
    */
  def stateBytesPerKey(ctx: Ctx, keys: Array[Long]): Double = Stats.median(keys.toSeq.map { s =>
    val stl = new OnlineSTL(ctx.shape.periods.toSeq)
    ctx.gen.series(s, ctx.shape.points).foreach(stl.push)
    SizeEstimator.estimate(stl).toDouble
  })

  /** The floors the keyed dataflow cannot go below: a scan of the persisted
    * input, and the same keyed grouping with a trivial per-key function.
    */
  def floors(ctx: Ctx, in: Dataset[MetricEvent], events: Long): (Double, Double) = {
    import ctx.spark.implicits._
    def eps(n: Int)(job: => Unit) = Stats.median((0 until n).map { _ =>
      val t0 = Stats.now(); job; events / Stats.secondsSince(t0)
    })
    eps(1)(in.count()) // warm-up
    val scan = eps(5)(require(in.count() == events))
    val keyed = eps(3)(in.groupByKey(_.seriesId).mapGroups((_, it) => it.size.toLong).collect())
    (scan, keyed)
  }
}
