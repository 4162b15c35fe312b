package repro.codecs

import repro.core.{FpBlock, Precision}

/** Deterministic input corpus for codec roundtrip tests: every structural
  * shape the 14 codecs branch on (smooth vs random, 1/2/3-D, single vs
  * double, special values, decimal-quantized, constant runs, awkward sizes).
  */
object TestInputs {

  def smooth1dD(n: Int): FpBlock =
    FpBlock.fromDoubles(Array.tabulate(n)(i => math.sin(i * 0.01) * 100 + i * 0.001))

  def smooth2dD(rows: Int, cols: Int): FpBlock = {
    val vals = Array.tabulate(rows * cols) { i =>
      val r = i / cols; val c = i % cols
      math.sin(r * 0.05) * math.cos(c * 0.05) * 42.0
    }
    FpBlock.fromDoubles(vals, Seq(rows.toLong, cols.toLong))
  }

  def smooth3dS(d: Int, h: Int, w: Int): FpBlock = {
    val vals = Array.tabulate(d * h * w) { i =>
      val z = i / (h * w); val r = (i / w) % h; val c = i % w
      (math.sin(z * 0.2) + math.cos(r * 0.1) * math.sin(c * 0.15)).toFloat
    }
    FpBlock.fromFloats(vals, Seq(d.toLong, h.toLong, w.toLong))
  }

  def smooth3dD(d: Int, h: Int, w: Int): FpBlock = {
    val vals = Array.tabulate(d * h * w) { i =>
      val z = i / (h * w); val r = (i / w) % h; val c = i % w
      math.sin(z * 0.2) + math.cos(r * 0.1) * math.sin(c * 0.15)
    }
    FpBlock.fromDoubles(vals, Seq(d.toLong, h.toLong, w.toLong))
  }

  def randomD(n: Int, seed: Long = 7): FpBlock = {
    val rng = new scala.util.Random(seed)
    FpBlock.fromDoubles(Array.fill(n)(rng.nextDouble() * 1e6 - 5e5))
  }

  def randomS(n: Int, seed: Long = 11): FpBlock = {
    val rng = new scala.util.Random(seed)
    FpBlock.fromFloats(Array.fill(n)(rng.nextFloat() * 1e4f - 5e3f))
  }

  /** Adversarial bit patterns: NaNs with payloads, infinities, signed zeros,
    * denormals, all-ones, extreme exponents.
    */
  def specialsD: FpBlock = FpBlock(
    Precision.Double, Seq(12L),
    Array(
      java.lang.Double.doubleToRawLongBits(Double.NaN),
      0x7ff8000000abcdefL, // NaN with payload
      java.lang.Double.doubleToRawLongBits(Double.PositiveInfinity),
      java.lang.Double.doubleToRawLongBits(Double.NegativeInfinity),
      java.lang.Double.doubleToRawLongBits(0.0),
      java.lang.Double.doubleToRawLongBits(-0.0),
      1L,                  // smallest denormal
      0x000fffffffffffffL, // largest denormal
      -1L,                 // all ones (negative NaN w/ payload)
      java.lang.Double.doubleToRawLongBits(Double.MaxValue),
      java.lang.Double.doubleToRawLongBits(Double.MinPositiveValue),
      java.lang.Double.doubleToRawLongBits(-Double.MaxValue),
    ))

  def specialsS: FpBlock = FpBlock(
    Precision.Single, Seq(10L),
    Array(
      java.lang.Float.floatToRawIntBits(Float.NaN).toLong & 0xffffffffL,
      0x7fc00abcL,
      java.lang.Float.floatToRawIntBits(Float.PositiveInfinity).toLong & 0xffffffffL,
      java.lang.Float.floatToRawIntBits(Float.NegativeInfinity).toLong & 0xffffffffL,
      0L, 0x80000000L, // +-0
      1L, 0x007fffffL, // denormals
      0xffffffffL,
      java.lang.Float.floatToRawIntBits(Float.MaxValue).toLong & 0xffffffffL,
    ))

  def quantizedD(n: Int, decimals: Int, seed: Long = 13): FpBlock = {
    val rng   = new scala.util.Random(seed)
    val scale = math.pow(10, decimals)
    FpBlock.fromDoubles(Array.fill(n)(math.rint(rng.nextDouble() * 1000 * scale) / scale))
  }

  /** `n` values drawn from [lo, lo + 1000) and rounded to `decimals` places:
    * the bounded-precision data BUFF quantizes (`decimals = 0` is integer data).
    */
  def decimalD(n: Int, decimals: Int, lo: Double, seed: Long): FpBlock =
    FpBlock.fromDoubles(decimalValues(n, decimals, lo, seed))

  def decimalS(n: Int, decimals: Int, lo: Double, seed: Long): FpBlock =
    FpBlock.fromFloats(decimalValues(n, decimals, lo, seed).map(_.toFloat))

  private def decimalValues(n: Int, decimals: Int, lo: Double, seed: Long): Array[Double] = {
    val rng   = new scala.util.Random(seed)
    val scale = math.pow(10, decimals)
    Array.fill(n)(math.rint((lo + rng.nextDouble() * 1000) * scale) / scale)
  }

  def constantD(n: Int, v: Double = 3.14159): FpBlock =
    FpBlock.fromDoubles(Array.fill(n)(v))

  def runsS(n: Int, seed: Long = 17): FpBlock = {
    val rng  = new scala.util.Random(seed)
    val vals = new Array[Float](n)
    var i = 0
    var cur = 0f
    while (i < n) {
      if (i % 37 == 0) cur = rng.nextFloat() * 100
      vals(i) = cur
      i += 1
    }
    FpBlock.fromFloats(vals)
  }

  /** A Gaussian random walk: long blocks whose deltas and XORs span from a
    * few bits to the full word each time the walk crosses zero.
    */
  def randomWalkD(n: Int, seed: Long = 23): FpBlock = {
    val rng = new scala.util.Random(seed)
    var x   = 0.0
    FpBlock.fromDoubles(Array.fill(n) { x += rng.nextGaussian(); x })
  }

  def randomWalkS(n: Int, seed: Long = 29): FpBlock = {
    val rng = new scala.util.Random(seed)
    var x   = 0.0
    FpBlock.fromFloats(Array.fill(n) { x += rng.nextGaussian(); x.toFloat })
  }

  /** (name, block) matrix covering the codec-relevant input space. */
  def corpus: Seq[(String, FpBlock)] = Seq(
    "smooth-1d-double"      -> smooth1dD(5000),
    "smooth-2d-double"      -> smooth2dD(50, 80),
    "smooth-3d-single"      -> smooth3dS(10, 20, 30),
    "random-double"         -> randomD(4099), // prime size: exercises tails
    "random-single"         -> randomS(4097),
    "specials-double"       -> specialsD,
    "specials-single"       -> specialsS,
    "quantized-2dec-double" -> quantizedD(3000, 2),
    "constant-double"       -> constantD(2048),
    "runs-single"           -> runsS(4200),
    "tiny-double"           -> smooth1dD(3),
    "single-value"          -> FpBlock.fromDoubles(Array(42.0)),
    "block-multiple-4096"   -> smooth1dD(8192),
  )
}
