package perfbench

/** An independent reference for OnlineSTL: a plain-array transcription of
  * the §5.2 initialisation and of Algorithm 1, with direct O(λ) loops over
  * whole-series arrays and no code from `repro.core`. It follows the same
  * reading of the paper as the program:
  *   - tri-cube weight W(u) = (1 − u³)³ on [0, 1);
  *   - trailing filter TF(λ) at point g: Σ_{d<λ} W(d/λ)·x[g−d] / Σ W(d/λ);
  *   - centred filter of span w: half-width h = max(1, w/2), weight W(d/(h+1)),
  *     truncated and renormalised at the series ends;
  *   - cyclic smoothing: the first value of each phase is taken as it is,
  *     then c ← γ·d + (1 − γ)·c.
  */
object Reference {
  final case class Out(trend: Array[Double], seasonals: Array[Array[Double]], residual: Array[Double])

  val Gamma = 0.7

  def tricube(u: Double): Double =
    if (u >= 0.0 && u < 1.0) { val c = 1.0 - u * u * u; c * c * c } else 0.0

  def centred(x: Array[Double], span: Int): Array[Double] = {
    val n = x.length
    val h = math.max(1, span / 2)
    Array.tabulate(n) { i =>
      var num = 0.0; var den = 0.0
      var j = math.max(0, i - h)
      while (j <= math.min(n - 1, i + h)) {
        val w = tricube(math.abs(j - i).toDouble / (h + 1))
        num += w * x(j); den += w
        j += 1
      }
      num / den
    }
  }

  def trailing(x: Array[Double], end: Int, lambda: Int): Double = {
    var num = 0.0; var den = 0.0
    var d = 0
    while (d < lambda) {
      val w = tricube(d.toDouble / lambda)
      num += w * x(end - d); den += w
      d += 1
    }
    num / den
  }

  /** Returns the smoothed series and the last estimate of each phase. */
  def cyclic(x: Array[Double], p: Int): (Array[Double], Array[Double]) = {
    val out = new Array[Double](x.length)
    val est = new Array[Double](p)
    var i = 0
    while (i < x.length) {
      val r = i % p
      est(r) = if (i < p) x(i) else Gamma * x(i) + (1.0 - Gamma) * est(r)
      out(i) = est(r)
      i += 1
    }
    (out, est)
  }

  /** Decomposes a whole series (length ≥ 4m) as the online method would
    * emit it point by point.
    */
  def decompose(x: Array[Double], periods: Array[Int]): Out = {
    val n = x.length
    val m = periods.max
    val w0 = 4 * m
    val k = periods.length
    require(n >= w0, s"need at least $w0 points, got $n")
    val trend = new Array[Double](n)
    val seas = Array.ofDim[Double](k, n)
    val res = new Array[Double](n)
    val kser = Array.ofDim[Double](k, n) // seasonal series K_p
    val des = new Array[Double](n)       // deseasonalised series D
    val es = new Array[Array[Double]](k)
    val et = new Array[Array[Double]](k)

    // §5.2: initialise on the first 4m points.
    val w = x.slice(0, w0)
    for (pi <- 0 until k) {
      val p = periods(pi)
      val tr = centred(w, 2 * p)
      val det = Array.tabulate(w0)(i => w(i) - tr(i))
      val (s1, e1) = cyclic(det, p)
      System.arraycopy(s1, 0, kser(pi), 0, w0); es(pi) = e1
      val ts = centred(s1, math.max(2, 3 * p / 2))
      val d5 = Array.tabulate(w0)(i => det(i) - ts(i))
      val (s2, e2) = cyclic(d5, p)
      System.arraycopy(s2, 0, seas(pi), 0, w0); et(pi) = e2
      for (i <- 0 until w0) w(i) -= s2(i)
    }
    System.arraycopy(w, 0, des, 0, w0)
    val ft = centred(w, m)
    for (i <- 0 until w0) trend(i) = ft(i)

    // Algorithm 1: one point at a time.
    for (g <- w0 until n) {
      var b = x(g)
      for (pi <- 0 until k) {
        val p = periods(pi)
        val r = g % p
        val t1 = trailing(x, g, 4 * p)
        es(pi)(r) = Gamma * (b - t1) + (1.0 - Gamma) * es(pi)(r)
        kser(pi)(g) = es(pi)(r)
        val t4 = trailing(kser(pi), g, 3 * p)
        et(pi)(r) = Gamma * (b - t1 - t4) + (1.0 - Gamma) * et(pi)(r)
        seas(pi)(g) = et(pi)(r)
        b -= seas(pi)(g)
      }
      des(g) = b
      trend(g) = trailing(des, g, m)
    }
    for (i <- 0 until n) {
      var s = 0.0
      for (pi <- 0 until k) s += seas(pi)(i)
      res(i) = x(i) - trend(i) - s
    }
    Out(trend, seas, res)
  }

  /** Checks the reference against properties the method must have, not
    * against the program: constants decompose to (c, 0, 0), the
    * decomposition is affine-equivariant, and the identity holds. Returns a
    * description of each property that failed.
    */
  def selfCheck(gen: Gen): Seq[String] = {
    val ps = gen.periods
    val n = 6 * ps.max
    val fails = Seq.newBuilder[String]
    // A power-of-two constant makes every weighted sum exact, so the
    // trend must equal c and the other parts 0 bit for bit.
    for (c <- Seq(4.0, -0.5)) {
      val o = decompose(Array.fill(n)(c), ps)
      if (!o.trend.forall(_ == c) || !o.seasonals.forall(_.forall(_ == 0.0)) || !o.residual.forall(_ == 0.0))
        fails += s"constant $c does not decompose to ($c, 0, 0) exactly"
    }
    val x = gen.series(0, n)
    val o = decompose(x, ps)
    val tol = 1e-9 * gen.scale(n)
    val (a, b) = (-2.5, 1000.0)
    val o2 = decompose(x.map(v => a * v + b), ps)
    val tol2 = 1e-9 * (math.abs(a) * gen.scale(n) + b)
    def close(u: Array[Double], v: Array[Double], t: Double) = u.indices.forall(i => math.abs(u(i) - v(i)) <= t)
    if (!close(o2.trend, o.trend.map(a * _ + b), tol2) ||
        !o.seasonals.indices.forall(p => close(o2.seasonals(p), o.seasonals(p).map(a * _), tol2)) ||
        !close(o2.residual, o.residual.map(a * _), tol2))
      fails += s"decomposing ${a}·x + $b does not give (${a}·T + $b, ${a}·S, ${a}·R)"
    val ident = (0 until n).forall { i =>
      math.abs(x(i) - (o.trend(i) + o.seasonals.map(_(i)).sum + o.residual(i))) <= tol
    }
    if (!ident) fails += "x = T + ΣS + R does not hold"
    fails.result()
  }
}
