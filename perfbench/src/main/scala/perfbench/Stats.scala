package perfbench

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "empty sample")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def now(): Long = System.nanoTime()
  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** CPU seconds used so far by this JVM (every thread: tasks, driver, GC,
    * JIT) plus the child processes it has waited for (Hadoop's `readlink`
    * and `chmod` helpers): utime + stime + cutime + cstime of
    * /proc/self/stat, in Linux's fixed USER_HZ = 100 ticks per second.
    * Time the host gives to other tenants (steal) is not in it.
    */
  def cpuSeconds(): Double = {
    val stat = new String(java.nio.file.Files.readAllBytes(java.nio.file.Paths.get("/proc/self/stat")))
    val f = stat.substring(stat.lastIndexOf(')') + 2).split(' ') // f(0) is field 3, state
    (f(11).toLong + f(12).toLong + f(13).toLong + f(14).toLong) / 100.0
  }
}

/** Just enough JSON output for the result line and the spans file. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric is not a finite number: $d")
    d.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

/** The host's speed at the time of a run, from code that is the
  * benchmark's own: `Reference.trailing` at λ = 4032 over a fixed series,
  * in one thread per core at once, as the workloads run. `nsPerCall`
  * returns the median thread-CPU ns per call. It does not depend on the
  * program, so it tells a slower host from a slower program.
  */
object HostProbe {
  private val mx = java.lang.management.ManagementFactory.getThreadMXBean

  /** The reference host: one on which a probe call takes 40 µs of thread
    * CPU. Normalised figures are CPU times scaled to it.
    */
  val RefNs = 40000.0

  /** Seconds between probes inside a timed loop. */
  val EverySeconds = 2.0

  def nsPerCall(threads: Int): Double = {
    val x = Array.tabulate(8192)(i => math.sin(i * 0.01) + (i % 7) * 0.1)
    val out = new Array[Double](threads)
    val ts = (0 until threads).map { k =>
      new Thread(() => {
        var sink = 0.0
        val per = (0 until 7).map { _ =>
          val c0 = mx.getCurrentThreadCpuTime
          var i = 0
          while (i < 400) { sink += Reference.trailing(x, 4100 + (i & 1023), 4032); i += 1 }
          (mx.getCurrentThreadCpuTime - c0) / 400.0
        }
        out(k) = Stats.median(per.drop(2)) + (if (sink == 42.0) 1 else 0)
      })
    }
    ts.foreach(_.start()); ts.foreach(_.join())
    Stats.median(out.toSeq)
  }
}

/** Host probes through a timed loop: one before it, one after any
  * operation that ends `HostProbe.EverySeconds` or more after the last
  * probe, and one after the loop. The host's speed can change within a
  * run, so each operation's CPU time is scaled by the probes on either side
  * of it.
  */
final class HostProbes(threads: Int) {
  private val ns = scala.collection.mutable.ArrayBuffer(HostProbe.nsPerCall(threads))
  private var last = Stats.now()
  private var open = false

  private def take(): Unit = {
    ns += HostProbe.nsPerCall(threads)
    last = Stats.now()
    open = false
  }

  /** Call after each timed operation; returns the index of the probe
    * before it, for `scale`.
    */
  def after(): Int = {
    val i = ns.size - 1
    open = true
    if (Stats.secondsSince(last) >= HostProbe.EverySeconds) take()
    i
  }

  /** Takes the last probe, unless the last operation was followed by one. */
  def close(): Unit = if (open) take()

  /** The factor that scales the CPU time of an operation that followed
    * probe `i` to the reference host.
    */
  def scale(i: Int): Double = HostProbe.RefNs / ((ns(i) + ns(i + 1)) / 2)

  /** The factor for the set-up, which ended just before the first probe. */
  def setupScale: Double = HostProbe.RefNs / ns.head

  override def toString: String = ns.map(p => f"$p%.0f").mkString(",")
}
