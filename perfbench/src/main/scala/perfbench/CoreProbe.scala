package perfbench

import repro.core.{CircularBuffer, OnlineSTL, TrendFilter}

/** Layer L0/L1: `repro.core` timed directly, in one thread and without
  * Spark, on the workload's periods and generator. Each figure is the
  * median of several timed blocks that follow untimed warm-up blocks.
  */
object CoreProbe {
  private var sink = 0.0 // keeps results live so the JIT cannot drop the calls

  private def blocks(n: Int, warm: Int)(block: => Double): Double = {
    for (_ <- 0 until warm) block
    Stats.median((0 until n).map(_ => block))
  }

  /** Returns the core.* per-layer metrics, in their units. `seriesLen` is
    * the length of one of the workload's series.
    */
  def run(gen: Gen, seriesLen: Int): Seq[(String, Double, String)] = {
    val ps = gen.periods.toSeq
    val m = ps.max
    val x = gen.series(1, math.max(seriesLen, 4 * m + 4000))

    val ring = new CircularBuffer(4 * m)
    ring.pushAll(x.take(4 * m))
    val calls = math.max(200, 4000000 / (4 * m))
    val nonSym = blocks(15, 5) {
      val t0 = Stats.now()
      var i = 0
      while (i < calls) { sink += TrendFilter.nonSymmetric(ring, 4 * m); i += 1 }
      (Stats.now() - t0).toDouble / calls
    }

    val win = x.take(4 * m)
    val sym = blocks(9, 3) {
      val t0 = Stats.now()
      sink += TrendFilter.symmetric(win, 2 * m)(0)
      (Stats.now() - t0) / 1e6
    }

    // Init: the push that completes the warm-up, on fresh instances.
    val init = blocks(7, 3) {
      val stl = new OnlineSTL(ps)
      var i = 0
      while (i < 4 * m - 1) { stl.push(x(i)); i += 1 }
      val t0 = Stats.now()
      sink += stl.push(x(4 * m - 1)).length
      (Stats.now() - t0) / 1e6
    }

    // Online updates on one instance past its warm-up.
    val online = new OnlineSTL(ps)
    x.take(4 * m).foreach(online.push)
    var pos = 4 * m
    val upd = math.max(500, 2000000 / (8 * m))
    def pushBlock(): Unit = {
      var i = 0
      while (i < upd) { sink += online.push(x(pos % x.length)).head.trend; pos += 1; i += 1 }
    }
    val update = blocks(15, 5) {
      val t0 = Stats.now(); pushBlock(); (Stats.now() - t0).toDouble / upd
    }
    val alloc = blocks(5, 1) {
      val a0 = Alloc.thisThread(); pushBlock(); (Alloc.thisThread() - a0).toDouble / upd
    }

    // The workload's series decomposed end to end in one thread.
    val series = (0 until math.max(4, 40000 / seriesLen)).map(s => gen.series(s, seriesLen))
    val eps = blocks(5, 2) {
      val t0 = Stats.now()
      series.foreach { xs => val stl = new OnlineSTL(ps); xs.foreach(v => sink += stl.push(v).length) }
      series.length.toDouble * seriesLen / Stats.secondsSince(t0)
    }
    if (sink == 42.4242) println(sink)
    Seq(
      ("core.TrendFilter.nonSymmetric_ns", nonSym, "ns"),
      ("core.TrendFilter.symmetric_ms", sym, "ms"),
      ("core.OnlineSTL.update_ns", update, "ns"),
      ("core.OnlineSTL.init_ms", init, "ms"),
      ("core.OnlineSTL.alloc_bytes_per_update", alloc, "bytes"),
      ("core.single_thread_eps", eps, "1/s"))
  }
}
