package perfbench

import java.nio.file.{Files, Path}
import java.time.Instant
import java.util.concurrent.{ConcurrentHashMap, LinkedBlockingQueue}

import org.apache.spark.sql.{Dataset, SQLContext}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{OutputMode, StreamingQueryListener, StreamingQueryProgress}
import org.apache.spark.sql.streaming.StreamingQueryListener._
import org.apache.spark.storage.StorageLevel
import repro.streaming.{DecompRow, MetricEvent, OnlineSTLStreaming}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Every `StreamingQueryProgress`, by query run and batch id. */
final class ProgressLog extends StreamingQueryListener {
  private val log = new ConcurrentHashMap[(String, Long), StreamingQueryProgress]()
  override def onQueryStarted(e: QueryStartedEvent): Unit = ()
  override def onQueryProgress(e: QueryProgressEvent): Unit =
    log.put((e.progress.runId.toString, e.progress.batchId), e.progress)
  override def onQueryTerminated(e: QueryTerminatedEvent): Unit = ()

  /** The progress of each batch, waiting for the listener bus if needed. */
  def await(runId: String, batches: Seq[Long], timeoutMs: Long = 30000): Seq[StreamingQueryProgress] = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (!batches.forall(b => log.containsKey((runId, b))) && System.currentTimeMillis() < deadline) Thread.sleep(10)
    batches.flatMap(b => Option(log.get((runId, b))))
  }
}

/** One `OnlineSTLStreaming.decomposeStream` query over a memory source,
  * with the default state store, a checkpoint directory and a sink that
  * collects each micro-batch's rows. The caller's thread is the only
  * generator, and there is one micro-batch in flight at a time.
  */
final class Scrape(ctx: Ctx, gen: Gen, keys: Int, ckpt: Path) {
  private val spark = ctx.spark
  import spark.implicits._
  private implicit val sqlCtx: SQLContext = spark.sqlContext
  private val mem = MemoryStream[MetricEvent]
  private val out = new LinkedBlockingQueue[(Long, Array[DecompRow])]()
  private val sink: (Dataset[DecompRow], Long) => Unit = (ds, id) => out.put(id -> ds.collect())
  val query = OnlineSTLStreaming.decomposeStream(mem.toDS(), gen.periods.toSeq).writeStream
    .foreachBatch(sink)
    .option("checkpointLocation", ckpt.toString)
    .outputMode(OutputMode.Append)
    .start()
  def runId: String = query.runId.toString
  private var next = 0L // next ts to feed

  /** Feeds ts [next, next + n) of every key as one micro-batch. Returns the
    * latency from `addData` to the return of `processAllAvailable`, the
    * batch ids that ran and their rows.
    */
  def feed(n: Int): (Double, Seq[Long], Array[DecompRow]) = {
    val evs = new Array[MetricEvent](keys * n)
    var i = 0
    for (dt <- 0 until n; s <- 0 until keys) { evs(i) = MetricEvent(s, next + dt, gen.value(s, next + dt)); i += 1 }
    next += n
    val t0 = Stats.now()
    mem.addData(evs.toIndexedSeq)
    query.processAllAvailable()
    val secs = Stats.secondsSince(t0)
    val got = ArrayBuffer.empty[(Long, Array[DecompRow])]
    out.drainTo(got.asJava)
    (secs, got.map(_._1).toSeq, got.flatMap(_._2).toArray)
  }

  def fed: Long = next

  def stop(): Unit = {
    query.stop()
    StreamWorkload.deleteTree(ckpt)
  }
}

/** `stream-scrape`: a closed loop of micro-batches, each carrying one new
  * point for every key (one scrape of the fleet), after every key was
  * primed past its 4m warm-up. An operation is a micro-batch.
  */
object StreamWorkload {
  val Prime = Seq(400, 300) // crosses 4m = 672 inside the second batch
  val WarmBatches = 6        // with fewer, the one-point path was still settling
  val MinBatches = 20        // micro-batches in the figures, at the least
  val MinTracedBatches = 100 // so that at least ten latencies lie beyond p90

  def deleteTree(p: Path): Unit = if (Files.exists(p)) {
    val all = Files.walk(p)
    try all.iterator().asScala.toSeq.reverse.foreach(Files.deleteIfExists) finally all.close()
  }

  def treeBytes(p: Path): Long = if (!Files.exists(p)) 0L else {
    val all = Files.walk(p)
    try all.iterator().asScala.filter(Files.isRegularFile(_)).map(Files.size).sum finally all.close()
  }

  private def withLog[T](ctx: Ctx)(f: ProgressLog => T): T = {
    val log = new ProgressLog
    ctx.spark.streams.addListener(log)
    try f(log) finally ctx.spark.streams.removeListener(log)
  }

  def run(ctx: Ctx): Result = withLog(ctx) { log =>
    val shape = ctx.shape
    val keys = shape.keys
    val primed = Prime.sum + WarmBatches
    require(Prime.sum == shape.points && Prime.sum > 4 * shape.periods.max)
    val sampled = ctx.sampledKeys
    val tol = 1e-9 * ctx.gen.scale(10000) // series stay far shorter than 10000 points
    ctx.say(s"keys=$keys prime_batches=${Prime.mkString("+")} warm_batches=$WarmBatches sampled_keys=${sampled.mkString(",")}")

    // Set-up rounds: start a query on a fresh checkpoint, prime every key
    // and warm up. The last round's query is the one that is timed.
    val primeSpec = CheckSpec(ctx.gen, keys, 0, primed, sampled, tol)
    var scrape: Scrape = null
    val (setup, primedRows) = ctx.setUp { r =>
      if (scrape != null) scrape.stop()
      scrape = new Scrape(ctx, ctx.gen, keys, ctx.work.resolve(s"checkpoint-$r"))
      (Prime ++ Seq.fill(WarmBatches)(1)).flatMap(n => scrape.feed(n)._3)
    }
    val primeOutcomes = primedRows.map(rows => new Checks.Outcome(primeSpec, Seq(Checks.summarize(primeSpec, rows.iterator))))
    val ckpt = ctx.work.resolve(s"checkpoint-${Main.SetupRounds}")
    ctx.say(s"checkpoint=$ckpt")

    val sc = ctx.spark.sparkContext
    @volatile var firstTimed = Long.MaxValue
    def isTraced(id: Long) = ctx.traced && id >= firstTimed && id % 2 == 0
    val listener = if (ctx.traced) {
      val l = new OpListener(p => Option(p.getProperty("streaming.sql.batchId")).map("batch-" + _),
        op => isTraced(op.stripPrefix("batch-").toLong))
      sc.addSparkListener(l); Some(l)
    } else None

    final case class Batch(id: Long, latency: Double, cpuSeconds: Double, outcome: Checks.Outcome, span: Int,
                           allocBytes: Long, probe: Int)
    val batches = ArrayBuffer.empty[Batch]
    var lastId = Prime.size + WarmBatches - 1L // batch ids of a fresh query start at 0
    firstTimed = lastId + 1
    val bytes0 = treeBytes(ckpt)
    val probes = new HostProbes(ctx.nproc)
    val t0 = Stats.now()
    val minBatches = if (ctx.traced) MinTracedBatches else MinBatches
    while (Stats.secondsSince(t0) < ctx.seconds || batches.size < minBatches) {
      val traced = isTraced(lastId + 1)
      val ts = scrape.fed
      val (lat, cpu, alloc, ids, rows, span) = ctx.tracer.span(ctx.workloadSpan, if (traced) "batch" else "batch-untraced") { span =>
        val a0 = Alloc.allThreads()
        val c0 = Stats.cpuSeconds()
        val (lat, ids, rows) = scrape.feed(1)
        (lat, Stats.cpuSeconds() - c0, Alloc.since(a0), ids, rows, span)
      }
      val spec = CheckSpec(ctx.gen, keys, ts, ts + 1, sampled, tol)
      val o = new Checks.Outcome(spec, Seq(Checks.summarize(spec, rows.iterator)))
      val id = if (ids.size == 1) ids.head else -1L // one addData, one micro-batch
      if (id >= 0) lastId = id
      batches += Batch(id, lat, cpu, o, span, alloc, probes.after())
    }
    probes.close()
    val bytesPerBatch = (treeBytes(ckpt) - bytes0).toDouble / batches.size
    val runId = scrape.runId
    val timedIds = batches.map(_.id).filter(_ >= 0).toSeq
    val progress = log.await(runId, timedIds).map(p => p.batchId -> p).toMap
    listener.foreach(l => l.awaitJobs(sc.statusTracker.getJobIdsForGroup(runId).toSeq))
    scrape.stop()
    ctx.say(s"checkpoint deleted: $ckpt")

    // Reference: each sampled key's whole series at once, so a match also
    // shows that the micro-batch split does not change the results.
    val len = scrape.fed.toInt
    val refs = sampled.map(s => s -> Reference.decompose(ctx.gen.series(s, len), shape.periods)).toMap
    val primeFailed = primeOutcomes.map { o => Checks.compareWithReference(primeSpec, o, refs); o.failed }.sum
    for (b <- batches) Checks.compareWithReference(b.outcome.spec, b.outcome, refs)
    val failedBatches = batches.count(b => b.id < 0 || b.outcome.failed > 0)
    val lat = batches.map(_.latency * 1000).toSeq
    val stateBytes = timedIds.flatMap(progress.get).map { p =>
      val so = p.stateOperators.head
      so.customMetrics.get("stateOnCurrentVersionSizeBytes").doubleValue / so.numRowsTotal
    }
    // CPU per event over the untraced micro-batches (all of them in an
    // untraced run): summed, since the children's CPU comes in 10 ms ticks.
    val untraced = Some(batches.filterNot(b => isTraced(b.id))).filter(_.nonEmpty).getOrElse(batches)
    def cpuPerEvent(bs: Seq[Batch]) = bs.map(_.cpuSeconds).sum * 1e6 / (keys.toDouble * bs.size)
    val normCpuPerEvent = untraced.map(b => b.cpuSeconds * probes.scale(b.probe)).sum * 1e6 / (keys.toDouble * untraced.size)
    val allocPerEvent = untraced.map(_.allocBytes.toDouble).sum / (keys.toDouble * untraced.size)
    ctx.say(s"micro_batches=${batches.size} latency_samples=${lat.size} beyond_p90=${lat.count(_ > Stats.quantile(lat, 0.9))} " +
      s"failed_batches=$failedBatches prime_failed_events=$primeFailed progress_records=${progress.size}")
    ctx.say(f"wall-clock (unbounded, follows the host's load): events_per_s=${keys * batches.size / batches.map(_.latency).sum}%.0f " +
      f"latency_p50_ms=${Stats.quantile(lat, 0.5)}%.1f latency_p90_ms=${Stats.quantile(lat, 0.9)}%.1f")
    ctx.say(f"raw cpu_ms_per_batch=${cpuPerEvent(untraced.toSeq) * keys / 1000}%.1f cpu_us_per_event=${cpuPerEvent(untraced.toSeq)}%.4f " +
      f"norm_cpu_us_per_event=$normCpuPerEvent%.4f " +
      f"setup_cpu_s=$setup%.3f host_probe_ns=$probes (reference ${HostProbe.RefNs}%.0f)")

    val perLayer = if (!ctx.traced) Nil else {
      val l = listener.get
      for (b <- batches; p <- progress.get(b.id)) addPhaseSpans(ctx.tracer, l, b.span, p)
      val tr = batches.filter(b => isTraced(b.id))
      val untr = batches.filterNot(b => isTraced(b.id))
      val overhead = 100.0 * (cpuPerEvent(tr.toSeq) / cpuPerEvent(untr.toSeq) - 1.0)
      val in = BatchWorkload.input(ctx).persist(StorageLevel.MEMORY_ONLY)
      val (scan, keyed) = BatchWorkload.floors(ctx, in, keys.toLong * shape.points)
      in.unpersist(blocking = true)
      val core = CoreProbe.run(ctx.gen, primed + 300)
      core.map { case (n, v, u) => Metric(n, v, u) } ++ Seq(
        Metric("dataflow.scan_eps", scan, "1/s"),
        Metric("dataflow.keyed_shuffle_eps", keyed, "1/s"),
        Metric("dataflow.job_eps", keys / Stats.median(untr.map(_.latency).toSeq), "1/s"),
      ) ++ l.dataflowMetrics(tr.map(b => s"batch-${b.id}").toSeq, keys) ++ Seq(
        Metric("run.cpu_us_per_event", cpuPerEvent(untraced.toSeq), "us"),
        Metric("run.norm_cpu_us_per_event", normCpuPerEvent, "us"),
        Metric("trace.overhead_pct", overhead, "%"),
      ) ++ stateMetrics(timedIds.flatMap(progress.get), bytesPerBatch, lat)
    }

    Result(attempted = batches.size, failed = failedBatches, correct = primeFailed == 0,
      endToEnd = Seq(
        Metric("alloc_bytes_per_event", allocPerEvent, "bytes"),
        Metric("state_bytes_per_key", Stats.median(stateBytes), "bytes"),
        Metric("setup_s", setup * probes.setupScale, "s")),
      perLayer = perLayer)
  }

  /** Layers L2/L4 from `StreamingQueryProgress`: medians per micro-batch,
    * and the micro-batches' wall-clock latencies in ms.
    */
  def stateMetrics(ps: Seq[StreamingQueryProgress], checkpointBytesPerBatch: Double,
                   latencyMs: Seq[Double]): Seq[Metric] = {
    def med(f: StreamingQueryProgress => Double) = Stats.median(ps.map(f))
    def dur(k: String)(p: StreamingQueryProgress) = Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)
    Seq(
      Metric("state.allUpdatesTime_ms", med(_.stateOperators.head.allUpdatesTimeMs.toDouble), "ms"),
      Metric("state.commitTime_ms", med(_.stateOperators.head.commitTimeMs.toDouble), "ms"),
      Metric("state.checkpoint_bytes_per_batch", checkpointBytesPerBatch, "bytes"),
      Metric("stream.addBatch_ms", med(dur("addBatch")), "ms"),
      Metric("stream.walCommit_ms", med(dur("walCommit")), "ms"),
      Metric("stream.commitOffsets_ms", med(dur("commitOffsets")), "ms"),
      Metric("stream.queryPlanning_ms", med(dur("queryPlanning")), "ms"),
      Metric("stream.batch_latency_p50_ms", Stats.quantile(latencyMs, 0.5), "ms"),
      Metric("stream.batch_latency_p90_ms", Stats.quantile(latencyMs, 0.9), "ms"))
  }

  /** Micro-batch phases as child spans, laid end to end from the trigger
    * start in the order the engine runs them; stages hang under addBatch.
    */
  private def addPhaseSpans(tr: Tracer, l: OpListener, parent: Int, p: StreamingQueryProgress): Unit = {
    var at = Instant.parse(p.timestamp).toEpochMilli * 1000
    for (k <- Seq("latestOffset", "walCommit", "getBatch", "queryPlanning", "addBatch", "commitOffsets")) {
      val d = Option(p.durationMs.get(k)).map(_.longValue * 1000).getOrElse(0L)
      val id = tr.add(parent, s"phase:$k", at, at + d)
      if (k == "addBatch") l.addSpans(tr, s"batch-${p.batchId}", id)
      at += d
    }
  }

  /** For the batch workloads' traced runs: the state and stream layers on
    * the workload's own keys and periods, from a short stream primed past
    * 4m in one micro-batch and then fed one point per key per batch.
    */
  def sideProbe(ctx: Ctx): (Seq[Metric], Boolean) = withLog(ctx) { log =>
    val prime = 4 * ctx.shape.periods.max + 4
    val conf = ctx.spark.conf
    val parts = conf.get("spark.sql.shuffle.partitions")
    conf.set("spark.sql.shuffle.partitions", Shape.all.find(_.name == "stream-scrape").get.partitions.toString)
    val ckpt = ctx.work.resolve("checkpoint-side")
    val s = new Scrape(ctx, ctx.gen, ctx.shape.keys, ckpt)
    try {
      val spec = CheckSpec(ctx.gen, ctx.shape.keys, 0, prime + 20, Array.empty, 1e-9 * ctx.gen.scale(prime + 20))
      val rows = ArrayBuffer.from(s.feed(prime)._3)
      val b0 = treeBytes(ckpt)
      val lat = ArrayBuffer.empty[Double]
      val ids = (0 until 20).flatMap { _ => val (l, ids, r) = s.feed(1); lat += l * 1000; rows ++= r; ids }
      val bytes = (treeBytes(ckpt) - b0).toDouble / 20
      val failed = new Checks.Outcome(spec, Seq(Checks.summarize(spec, rows.iterator))).failed
      ctx.say(s"side stream: keys=${ctx.shape.keys} prime=$prime batches=20 failed_events=$failed")
      (stateMetrics(log.await(s.runId, ids), bytes, lat.toSeq), failed == 0)
    } finally {
      s.stop()
      conf.set("spark.sql.shuffle.partitions", parts)
    }
  }
}
