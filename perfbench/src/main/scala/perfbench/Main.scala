package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}

import org.apache.spark.sql.SparkSession

/** A workload's fixed make-up. `points` is the series length for the batch
  * workloads and the primed length for the stream.
  */
final case class Shape(name: String, periods: Array[Int], keys: Int, points: Int, partitions: Int)

object Shape {
  val all: Seq[Shape] = Seq(
    // 2048 series × 4 weeks of hourly points, one daily period.
    Shape("fleet-hourly", Array(24), keys = 2048, points = 4 * 168, partitions = 16),
    // 128 series × 5 weeks at 10-minute resolution, daily and weekly periods:
    // 4 weeks of warm-up (4m = 4032) and one week online.
    Shape("weekly-10min", Array(144, 1008), keys = 128, points = 5 * 1008, partitions = 16),
    // 300 series with hourly daily and weekly periods, primed to 700 points
    // (past 4m = 672), then one point per series per micro-batch.
    Shape("stream-scrape", Array(24, 168), keys = 300, points = 700, partitions = 2),
  )
}

final case class Metric(name: String, value: Double, unit: String)

final case class Result(attempted: Long, failed: Long, correct: Boolean,
                        endToEnd: Seq[Metric], perLayer: Seq[Metric])

/** What every workload gets: the session, the run's directories, the
  * tracer and the time the session took to start.
  */
final case class Ctx(spark: SparkSession, shape: Shape, gen: Gen, seed: Long, seconds: Double,
                     work: Path, tracer: Tracer, sessionSeconds: Double, sessionCpuSeconds: Double,
                     workloadSpan: Int) {
  def nproc: Int = spark.sparkContext.defaultParallelism
  def traced: Boolean = tracer.enabled

  /** Keys whose rows are compared with the reference: a few, picked by seed. */
  def sampledKeys: Array[Long] =
    (0 until 6).map(i => java.lang.Math.floorMod(Gen.mix(seed * 31 + i), shape.keys.toLong)).distinct.toArray

  def say(line: String): Unit = Main.say(line)

  /** Runs `Main.SetupRounds` set-up rounds and returns the set-up CPU
    * seconds, with each round's result: the CPU seconds from JVM start to
    * the Spark session, plus the median CPU seconds of a round. CPU time,
    * unlike wall-clock time, does not grow when other processes or tenants
    * take the cores; the wall-clock times are printed beside it.
    */
  def setUp[T](round: Int => T): (Double, Seq[T]) = {
    val rs = (1 to Main.SetupRounds).map { r =>
      tracer.span(workloadSpan, "setup") { _ =>
        val c0 = Stats.cpuSeconds()
        val t0 = Stats.now()
        val out = round(r)
        (Stats.secondsSince(t0), Stats.cpuSeconds() - c0, out)
      }
    }
    say(f"setup session_s=$sessionSeconds%.3f session_cpu_s=$sessionCpuSeconds%.2f " +
      s"rounds_s=${rs.map(r => f"${r._1}%.3f").mkString(",")} rounds_cpu_s=${rs.map(r => f"${r._2}%.2f").mkString(",")}")
    (sessionCpuSeconds + Stats.median(rs.map(_._2)), rs.map(_._3))
  }
}

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --work <dir>`. Prints provenance lines, then one JSON result line last.
  */
object Main {
  val SetupRounds = 3

  /** A provenance line, stamped with seconds since the JVM started. */
  def say(line: String): Unit =
    println(f"[perfbench] ${ManagementFactory.getRuntimeMXBean.getUptime / 1000.0}%7.2f $line")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, sys.error(s"missing --$k"))
    val shape = Shape.all.find(_.name == opt("workload"))
      .getOrElse(sys.error(s"unknown workload ${opt("workload")}; known: ${Shape.all.map(_.name).mkString(", ")}"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") == "1"
    val work = Paths.get(opt("work")).toAbsolutePath
    Files.createDirectories(work)

    val nproc = Runtime.getRuntime.availableProcessors()
    val spark = SparkSession.builder()
      .master(s"local[$nproc]")
      .appName(s"perfbench-${shape.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", shape.partitions.toString)
      // Keep the task layout fixed: the same keys land in the same tasks on
      // every run, whatever a change does to row sizes.
      .config("spark.sql.adaptive.coalescePartitions.enabled", "false")
      // State-store maintenance (snapshots and clean-up) would run in some
      // runs' timed window and not in others; keep it out of every run.
      .config("spark.sql.streaming.stateStore.maintenanceInterval", "600s")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val sessionSeconds = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0
    val sessionCpuSeconds = Stats.cpuSeconds()

    val tracer = new Tracer(trace)
    val runStart = tracer.nowUs
    val gen = Gen(seed, shape.periods)
    val result = try {
      tracer.span(0, "run") { runSpan =>
        tracer.span(runSpan, s"workload:${shape.name}") { wl =>
          val ctx = Ctx(spark, shape, gen, seed, seconds, work, tracer, sessionSeconds, sessionCpuSeconds, wl)
          ctx.say(s"workload=${shape.name} seed=$seed seconds=$seconds trace=${if (trace) 1 else 0}")
          ctx.say(s"nproc=$nproc jvm=${sys.props("java.vm.name")} ${sys.props("java.version")} " +
            s"heap_max_mb=${Runtime.getRuntime.maxMemory >> 20} spark=${spark.version} " +
            s"shuffle_partitions=${shape.partitions} keys=${shape.keys} periods=${shape.periods.mkString(",")}")
          if (shape.name == "stream-scrape") StreamWorkload.run(ctx) else BatchWorkload.run(ctx)
        }
      }
    } finally spark.stop()
    say("spark stopped")

    val refFails = Reference.selfCheck(gen)
    refFails.foreach(f => say(s"reference self-check FAILED: $f"))
    if (refFails.isEmpty) say("reference self-check passed: constants, affine equivariance, identity")

    if (trace) {
      val path = work.getParent.resolve("perfbench-traces").resolve(s"${shape.name}-seed$seed-${runStart}.spans.jsonl")
      tracer.write(path)
      println(s"[perfbench] spans: ${tracer.all.size} written to $path")
      for ((name, n, ms) <- tracer.selfTimes)
        println(f"[perfbench] self_time $name%-22s count=$n%6d self_ms=$ms%12.1f")
    }
    val metrics = if (trace) result.perLayer else result.endToEnd
    for (m <- metrics) println(f"[perfbench] ${m.name}%-40s ${m.value}%16.4f ${m.unit}")
    val correct = result.correct && refFails.isEmpty
    println(Json.obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> result.attempted.toString,
      "failed" -> math.min(result.failed, result.attempted).toString,
      "metrics" -> Json.obj(metrics.map(m => m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))))))
    System.out.flush()
    sys.exit(0)
  }
}
