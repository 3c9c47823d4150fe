package perfbench

/** The benchmark's input generator. A value is a pure function of
  * (seed, seriesId, t): a linear trend, one sinusoid per period and hashed
  * noise, so any component can regenerate any event without shared state.
  */
final case class Gen(seed: Long, periods: Array[Int]) {
  import Gen._

  private def param(s: Long, i: Int): Double = unit(mix(mix(seed ^ Salt) + s * 0x9E3779B97F4A7C15L + i))

  def value(s: Long, t: Long): Double = {
    var v = 50.0 + 100.0 * param(s, 0) + 0.02 * (param(s, 1) - 0.5) * t
    var i = 0
    while (i < periods.length) {
      val p = periods(i)
      val amp = 5.0 + 15.0 * param(s, 2 + 2 * i)
      val phase = p * param(s, 3 + 2 * i)
      v += amp * math.sin(2.0 * math.Pi * (t + phase) / p)
      i += 1
    }
    v + Noise * (2.0 * unit(mix(mix(seed + s * 0xD1B54A32D192ED03L) ^ t)) - 1.0)
  }

  def series(s: Long, n: Int): Array[Double] = Array.tabulate(n)(t => value(s, t))

  /** An upper bound on |value| over the first `n` points of any series:
    * the scale that correctness tolerances are relative to.
    */
  def scale(n: Long): Double = 150.0 + 0.01 * n + 20.0 * periods.length + Noise
}

object Gen {
  val Noise = 1.0
  private val Salt = 0x5DEECE66DL

  /** splitmix64 finaliser. */
  def mix(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Uniform in [0, 1) from the top 53 bits. */
  def unit(h: Long): Double = (h >>> 11) * (1.0 / (1L << 53))
}
