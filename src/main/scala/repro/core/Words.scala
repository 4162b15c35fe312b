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
}
