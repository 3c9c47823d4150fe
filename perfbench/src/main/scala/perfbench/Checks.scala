package perfbench

import repro.streaming.DecompRow

import scala.collection.mutable

/** What the output of one operation must cover: every key in [0, keys) at
  * every ts in [t0, t1), once, with the generated value.
  */
final case class CheckSpec(gen: Gen, keys: Int, t0: Long, t1: Long, sampled: Array[Long], tol: Double) {
  def width: Int = (t1 - t0).toInt
}

/** Rows of one sampled key, kept for the comparison with [[Reference]]. */
final case class SampleRows(sid: Long, ts: Array[Long], trend: Array[Double],
                            seasonals: Array[Array[Double]], residual: Array[Double])

/** Per-key coverage: `seen` has a bit per ts that appeared, `bad` a bit per
  * ts that appeared twice or whose row failed a check.
  */
final case class KeyCover(sid: Long, seen: Array[Long], bad: Array[Long])

final case class Summary(keys: Array[KeyCover], samples: Array[SampleRows], stray: Long)

object Checks {
  private def words(n: Int) = (n + 63) >>> 6
  private def get(b: Array[Long], i: Int) = (b(i >>> 6) & (1L << (i & 63))) != 0
  private def set(b: Array[Long], i: Int): Unit = b(i >>> 6) |= 1L << (i & 63)

  /** Checks each row as it streams past and summarises coverage. Rows with
    * a key or ts outside the spec are counted as stray.
    */
  def summarize(spec: CheckSpec, rows: Iterator[DecompRow]): Summary = {
    val k = spec.gen.periods.length
    val w = spec.width
    val cover = mutable.LongMap.empty[KeyCover]
    val samples = mutable.LongMap.empty[mutable.ArrayBuffer[DecompRow]]
    val sampled = spec.sampled.toSet
    var stray = 0L
    while (rows.hasNext) {
      val r = rows.next()
      val i = r.ts - spec.t0
      if (r.seriesId < 0 || r.seriesId >= spec.keys || i < 0 || i >= w) stray += 1
      else {
        val c = cover.getOrElseUpdate(r.seriesId, KeyCover(r.seriesId, new Array[Long](words(w)), new Array[Long](words(w))))
        val ii = i.toInt
        if (get(c.seen, ii) || !rowOk(spec, k, r)) set(c.bad, ii)
        set(c.seen, ii)
        if (sampled(r.seriesId)) samples.getOrElseUpdate(r.seriesId, mutable.ArrayBuffer.empty) += r
      }
    }
    val sampleRows = samples.values.map { b =>
      SampleRows(b.head.seriesId, b.map(_.ts).toArray, b.map(_.trend).toArray,
        Array.tabulate(k)(p => b.map(_.seasonals(p)).toArray), b.map(_.residual).toArray)
    }.toArray
    Summary(cover.values.toArray, sampleRows, stray)
  }

  private def rowOk(spec: CheckSpec, k: Int, r: DecompRow): Boolean = {
    if (r.seasonals.length != k || r.value != spec.gen.value(r.seriesId, r.ts)) false
    else {
      var s = 0.0
      r.seasonals.foreach(s += _)
      val fin = !r.trend.isNaN && !r.trend.isInfinite && !s.isNaN && !s.isInfinite &&
        !r.residual.isNaN && !r.residual.isInfinite
      fin && math.abs(r.value - (r.trend + s + r.residual)) <= spec.tol &&
        math.abs(r.seasonal - s) <= spec.tol
    }
  }

  /** The merged outcome of one operation's summaries. */
  final class Outcome(val spec: CheckSpec, parts: Seq[Summary]) {
    val stray: Long = parts.map(_.stray).sum
    val samples: Seq[SampleRows] = parts.flatMap(_.samples)
    private val good: mutable.LongMap[Array[Long]] = {
      val seen = mutable.LongMap.empty[Array[Long]]
      val bad = mutable.LongMap.empty[Array[Long]]
      for (p <- parts; c <- p.keys) {
        val s = seen.getOrElseUpdate(c.sid, new Array[Long](c.seen.length))
        val b = bad.getOrElseUpdate(c.sid, new Array[Long](c.bad.length))
        for (j <- s.indices) { b(j) |= c.bad(j) | (s(j) & c.seen(j)); s(j) |= c.seen(j) }
      }
      seen.map { case (sid, s) => sid -> s.indices.map(j => s(j) & ~bad(sid)(j)).toArray }
    }

    /** Marks a (sampled) event as failed after its rows were compared with the reference. */
    def fail(sid: Long, ts: Long): Unit = good.get(sid).foreach { g =>
      val i = (ts - spec.t0).toInt
      g(i >>> 6) &= ~(1L << (i & 63))
    }

    /** Events of the spec whose row is missing, duplicated or wrong, plus stray rows. */
    def failed: Long = {
      val goodCount = good.values.map(_.map(java.lang.Long.bitCount(_).toLong).sum).sum
      spec.keys.toLong * spec.width - goodCount + stray
    }
  }

  /** Compares sampled rows with the reference decomposition of their series
    * and marks each mismatch failed; returns the number of rows compared.
    */
  def compareWithReference(spec: CheckSpec, out: Outcome, ref: Long => Reference.Out): Long = {
    var compared = 0L
    for (s <- out.samples) {
      val r = ref(s.sid)
      for (j <- s.ts.indices) {
        val t = s.ts(j).toInt
        val ok = t < r.trend.length &&
          math.abs(s.trend(j) - r.trend(t)) <= spec.tol &&
          math.abs(s.residual(j) - r.residual(t)) <= spec.tol &&
          s.seasonals.indices.forall(p => math.abs(s.seasonals(p)(j) - r.seasonals(p)(t)) <= spec.tol)
        if (!ok) out.fail(s.sid, s.ts(j))
        compared += 1
      }
    }
    compared
  }
}
