package perfbench

import java.io.PrintWriter
import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path}
import java.util.Properties
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler._

import scala.jdk.CollectionConverters._

/** One span: a named interval of the run and the span that caused it. Times
  * are microseconds since the epoch.
  */
final case class Span(id: Int, parent: Int, name: String, startUs: Long, endUs: Long)

/** Spans kept in memory and written to one file at the end of the run. A
  * disabled tracer records nothing and costs one branch per span.
  */
final class Tracer(val enabled: Boolean) {
  private val spans = new ConcurrentLinkedQueue[Span]()
  private val ids = new AtomicInteger(0)
  private val epochUs0 = System.currentTimeMillis() * 1000
  private val nano0 = System.nanoTime()

  def nowUs: Long = epochUs0 + (System.nanoTime() - nano0) / 1000

  def add(parent: Int, name: String, startUs: Long, endUs: Long): Int =
    if (!enabled) 0
    else { val id = ids.incrementAndGet(); spans.add(Span(id, parent, name, startUs, endUs)); id }

  /** A span whose id is known before its work runs, so children can name it. */
  def span[T](parent: Int, name: String)(f: Int => T): T =
    if (!enabled) f(0)
    else {
      val id = ids.incrementAndGet()
      val s = nowUs
      try f(id) finally spans.add(Span(id, parent, name, s, nowUs))
    }

  def all: Seq[Span] = spans.asScala.toSeq.sortBy(_.id)

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val w = new PrintWriter(Files.newBufferedWriter(path))
    try all.foreach { s =>
      w.println(Json.obj(Seq("id" -> s.id.toString, "parent" -> s.parent.toString, "name" -> Json.str(s.name),
        "start_us" -> s.startUs.toString, "end_us" -> s.endUs.toString)))
    } finally w.close()
  }

  /** Self time per span name, in ms: each span's duration minus the part of
    * it its children cover. Returns (name, count, self ms) rows.
    */
  def selfTimes: Seq[(String, Int, Double)] = {
    val ss = all
    val kids = ss.groupBy(_.parent)
    val rows = ss.map { s =>
      val iv = kids.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startUs, s.startUs), math.min(c.endUs, s.endUs)))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L; var curS = -1L; var curE = -1L
      for ((a, b) <- iv) {
        if (a > curE) { covered += curE - curS; curS = a; curE = b }
        else curE = math.max(curE, b)
      }
      covered += curE - curS
      s.name -> (s.endUs - s.startUs - covered)
    }
    rows.groupBy(_._1).toSeq.map { case (n, v) => (n, v.size, v.map(_._2).sum / 1000.0) }.sortBy(-_._3)
  }
}

final case class StageRec(op: String, stageId: Int, submitMs: Long, completeMs: Long)
final case class TaskRec(op: String, stageId: Int, taskType: String, launchMs: Long, finishMs: Long,
                         cpuNs: Long, gcMs: Long, shuffleWriteBytes: Long)

/** Collects stage and task records from Spark's listener bus, each tagged
  * with the operation (a repetition or a micro-batch) that ran it, as read
  * from the job's local properties by `opOf`. Records of operations for
  * which `traced` is false are dropped.
  */
final class OpListener(opOf: Properties => Option[String], traced: String => Boolean) extends SparkListener {
  private val stageOp = new ConcurrentHashMap[Int, String]()
  private val jobsEnded = ConcurrentHashMap.newKeySet[Int]()
  val stages = new ConcurrentLinkedQueue[StageRec]()
  val tasks = new ConcurrentLinkedQueue[TaskRec]()

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    Option(e.properties).flatMap(opOf).filter(traced).foreach(stageOp.put(e.stageInfo.stageId, _))

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val si = e.stageInfo
    Option(stageOp.get(si.stageId)).foreach { op =>
      stages.add(StageRec(op, si.stageId, si.submissionTime.getOrElse(0L), si.completionTime.getOrElse(0L)))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageOp.get(e.stageId)).filter(_ => e.taskMetrics != null).foreach { op =>
      val m = e.taskMetrics
      tasks.add(TaskRec(op, e.stageId, e.taskType, e.taskInfo.launchTime, e.taskInfo.finishTime,
        m.executorCpuTime, m.jvmGCTime, m.shuffleWriteMetrics.bytesWritten))
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded.add(e.jobId)

  /** Waits until the listener bus has delivered the end of every given job. */
  def awaitJobs(jobIds: Seq[Int], timeoutMs: Long = 30000): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (!jobIds.forall(jobsEnded.contains) && System.currentTimeMillis() < deadline) Thread.sleep(10)
  }

  def tasksOf(op: String): Seq[TaskRec] = tasks.asScala.filter(_.op == op).toSeq
  def stagesOf(op: String): Seq[StageRec] = stages.asScala.filter(_.op == op).toSeq.sortBy(_.stageId)

  /** Layer L3 from the traced operations: medians per operation. */
  def dataflowMetrics(ops: Seq[String], eventsPerOp: Long): Seq[Metric] = {
    def med(f: Seq[TaskRec] => Double) = Stats.median(ops.map(op => f(tasksOf(op))))
    def cpuMs(ts: Seq[TaskRec], kind: String) = ts.filter(_.taskType == kind).map(_.cpuNs).sum / 1e6
    Seq(
      Metric("dataflow.map_cpu_ms", med(ts => cpuMs(ts, "ShuffleMapTask")), "ms"),
      Metric("dataflow.reduce_cpu_ms", med(ts => cpuMs(ts, "ResultTask")), "ms"),
      Metric("dataflow.shuffle_bytes_per_event", med(ts => ts.map(_.shuffleWriteBytes).sum.toDouble / eventsPerOp), "bytes"),
      Metric("dataflow.gc_ms", med(ts => ts.map(_.gcMs).sum.toDouble), "ms"),
      Metric("dataflow.task_skew", med { ts =>
        val d = ts.filter(_.taskType == "ResultTask").map(t => (t.finishMs - t.launchMs).toDouble)
        d.max / math.max(1.0, Stats.median(d))
      }, "ratio"))
  }

  /** Adds the operation's stages, and their tasks, as spans under `parent`. */
  def addSpans(tr: Tracer, op: String, parent: Int): Unit = {
    val ts = tasksOf(op).groupBy(_.stageId)
    for (s <- stagesOf(op)) {
      val st = ts.getOrElse(s.stageId, Nil)
      val kind = if (st.exists(_.taskType == "ShuffleMapTask")) "map" else "result"
      val sid = tr.add(parent, s"stage:$kind", s.submitMs * 1000, s.completeMs * 1000)
      for (t <- st) tr.add(sid, s"task:$kind", t.launchMs * 1000, t.finishMs * 1000)
    }
  }
}

object Alloc {
  private val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by each live thread of the JVM, by thread id. */
  def allThreads(): Map[Long, Long] = {
    val ids = mx.getAllThreadIds
    ids.zip(mx.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  /** Bytes the JVM's threads allocated since snapshot `s0`. A thread that
    * ended in between (pooled Spark threads end after a minute idle) drops
    * out of the sum, so its earlier allocation is not subtracted.
    */
  def since(s0: Map[Long, Long]): Long =
    allThreads().iterator.map { case (id, b) => b - s0.getOrElse(id, 0L) }.sum

  /** Bytes allocated so far by the calling thread. */
  def thisThread(): Long = mx.getCurrentThreadAllocatedBytes
}
