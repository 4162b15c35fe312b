package repro.core

/** Floating-point precision of a dataset/block, per IEEE 754. */
sealed abstract class Precision(val bytes: Int, val bits: Int, val tag: String)
object Precision {
  case object Single extends Precision(4, 32, "S")
  case object Double extends Precision(8, 64, "D")
}

/** A block of floating-point values handed to a codec.
  *
  * Values are carried as raw IEEE 754 bit patterns in an `Array[Long]`
  * (single-precision patterns occupy the low 32 bits), so codecs operate on
  * bits without ever round-tripping through arithmetic that could perturb
  * NaN payloads or signed zeros — losslessness is bit-exact.
  *
  * `extent` is the logical shape (fastest-varying dimension last), used by
  * dimension-aware predictors (fpzip's Lorenzo, ndzip's hypercubes, pFPC's
  * thread alignment). A block flattened to 1-D simply has `extent.length == 1`.
  */
final case class FpBlock(precision: Precision, extent: Seq[Long], bits: Array[Long]) {
  require(extent.nonEmpty && extent.forall(_ > 0), s"bad extent: $extent")
  require(extent.product == bits.length.toLong,
          s"extent ${extent.mkString("x")} != ${bits.length} values")

  def n: Int = bits.length

  /** Uncompressed size in bytes. */
  def sizeBytes: Long = n.toLong * precision.bytes

  /** View with dimensionality information erased (column-store layout). */
  def as1d: FpBlock = copy(extent = Seq(bits.length.toLong))

  /** The values widened to doubles. The loops avoid `Array.map`, which boxes
    * every element.
    */
  def toDoubles: Array[Double] = {
    val out = new Array[Double](bits.length)
    var i   = 0
    precision match {
      case Precision.Double =>
        while (i < bits.length) { out(i) = java.lang.Double.longBitsToDouble(bits(i)); i += 1 }
      case Precision.Single =>
        while (i < bits.length) { out(i) = java.lang.Float.intBitsToFloat(bits(i).toInt).toDouble; i += 1 }
    }
    out
  }

  /** Serialize to little-endian raw bytes (the on-disk representation).
    * Hand-rolled loops: this sits under every codec's timed path, so it must
    * not bottleneck on ByteBuffer call overhead.
    */
  def toBytes: Array[Byte] = {
    val out = new Array[Byte](sizeBytes.toInt)
    var i = 0
    precision match {
      case Precision.Double =>
        while (i < bits.length) {
          val v = bits(i); val o = i * 8
          out(o) = v.toByte;             out(o + 1) = (v >>> 8).toByte
          out(o + 2) = (v >>> 16).toByte; out(o + 3) = (v >>> 24).toByte
          out(o + 4) = (v >>> 32).toByte; out(o + 5) = (v >>> 40).toByte
          out(o + 6) = (v >>> 48).toByte; out(o + 7) = (v >>> 56).toByte
          i += 1
        }
      case Precision.Single =>
        while (i < bits.length) {
          val v = bits(i).toInt; val o = i * 4
          out(o) = v.toByte;             out(o + 1) = (v >>> 8).toByte
          out(o + 2) = (v >>> 16).toByte; out(o + 3) = (v >>> 24).toByte
          i += 1
        }
    }
    out
  }
}

object FpBlock {
  def fromDoubles(values: Array[Double], extent: Seq[Long] = Seq.empty): FpBlock = {
    val bits = new Array[Long](values.length)
    var i    = 0
    while (i < values.length) { bits(i) = java.lang.Double.doubleToRawLongBits(values(i)); i += 1 }
    FpBlock(Precision.Double, extentOr(extent, values.length), bits)
  }

  def fromFloats(values: Array[Float], extent: Seq[Long] = Seq.empty): FpBlock = {
    val bits = new Array[Long](values.length)
    var i    = 0
    while (i < values.length) { bits(i) = singleBits(values(i)); i += 1 }
    FpBlock(Precision.Single, extentOr(extent, values.length), bits)
  }

  /** `extent`, or a 1-D extent of `n` values when it is empty. */
  private def extentOr(extent: Seq[Long], n: Int): Seq[Long] = if (extent.isEmpty) Seq(n.toLong) else extent

  /** The raw bit pattern of a float in the low 32 bits of a Long. */
  def singleBits(f: Float): Long = java.lang.Float.floatToRawIntBits(f).toLong & 0xffffffffL

  /** Deserialize little-endian raw bytes produced by [[FpBlock.toBytes]]. */
  def fromBytes(precision: Precision, extent: Seq[Long], bytes: Array[Byte]): FpBlock = {
    val n    = bytes.length / precision.bytes
    val bits = new Array[Long](n)
    var i = 0
    precision match {
      case Precision.Double =>
        while (i < n) {
          val o = i * 8
          bits(i) = (bytes(o) & 0xffL) | ((bytes(o + 1) & 0xffL) << 8) |
            ((bytes(o + 2) & 0xffL) << 16) | ((bytes(o + 3) & 0xffL) << 24) |
            ((bytes(o + 4) & 0xffL) << 32) | ((bytes(o + 5) & 0xffL) << 40) |
            ((bytes(o + 6) & 0xffL) << 48) | ((bytes(o + 7) & 0xffL) << 56)
          i += 1
        }
      case Precision.Single =>
        while (i < n) {
          val o = i * 4
          bits(i) = (bytes(o) & 0xffL) | ((bytes(o + 1) & 0xffL) << 8) |
            ((bytes(o + 2) & 0xffL) << 16) | ((bytes(o + 3) & 0xffL) << 24)
          i += 1
        }
    }
    FpBlock(precision, extentOr(extent, n), bits)
  }
}
