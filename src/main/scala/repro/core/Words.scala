package repro.core

/** Reinterpret an FpBlock as a stream of 64-bit words, the input unit of the
  * double-only codecs (FPC/pFPC, GFC). Little-endian semantics: two single-
  * precision patterns pack into one word (low half first), matching how the
  * paper fed single-precision files to these tools. No byte-array round trip.
  */
object Words {
  def pack(block: FpBlock): Array[Long] = block.precision match {
    case Precision.Double => block.bits
    case Precision.Single =>
      val n     = block.bits.length
      val words = new Array[Long]((n + 1) / 2)
      var i = 0
      while (i < n) {
        words(i >> 1) |= (block.bits(i) & 0xffffffffL) << ((i & 1) << 5)
        i += 1
      }
      words
  }

  def unpack(words: Array[Long], precision: Precision, extent: Seq[Long]): FpBlock = {
    val n = extent.product.toInt
    precision match {
      case Precision.Double => FpBlock(precision, extent, words)
      case Precision.Single =>
        val bits = new Array[Long](n)
        var i = 0
        while (i < n) {
          bits(i) = (words(i >> 1) >>> ((i & 1) << 5)) & 0xffffffffL
          i += 1
        }
        FpBlock(precision, extent, bits)
    }
  }

  /** The low `w` bits set, the value mask of a `w`-bit pattern (1 <= w <= 64). */
  def mask(w: Int): Long = if (w == 64) -1L else (1L << w) - 1

  /** The low `w` bits of `v` read as a signed `w`-bit residual and zigzag
    * mapped (0, -1, 1, -2, ... to 0, 1, 2, 3, ...), so that a small residual
    * of either sign has few significant bits; the result fits in `w` bits.
    */
  def zigzag(v: Long, w: Int): Long = {
    val r = if (w == 64) v else (v << (64 - w)) >> (64 - w)
    (r << 1) ^ (r >> 63)
  }

  /** The signed residual of a [[zigzag]] code, sign-extended to 64 bits. */
  def unzigzag(z: Long): Long = (z >>> 1) ^ -(z & 1)

  /** The low `nBytes` bytes of `v` at `data(off)`, least significant first. */
  def writeWordLE(data: Array[Byte], off: Int, v: Long, nBytes: Int): Unit = {
    var i = 0
    while (i < nBytes) { data(off + i) = (v >>> (8 * i)).toByte; i += 1 }
  }

  /** Reads back a word written by [[writeWordLE]]. */
  def readWordLE(data: Array[Byte], off: Int, nBytes: Int): Long = {
    var v = 0L
    var i = 0
    while (i < nBytes) { v |= (data(off + i) & 0xffL) << (8 * i); i += 1 }
    v
  }
}
