package repro.codecs.gpu

import repro.core._

/** GFC [O'Neil & Burtscher, 2011] — warp-parallel delta compression of
  * double-precision data.
  *
  * Data is divided into 32-value subchunks (one value per warp lane). Every
  * value in the current subchunk subtracts the *last value of the previous
  * subchunk* — the cheap-but-inaccurate predictor responsible for GFC's low
  * compression-ratio ranking in the paper. Each residual is stored as a
  * 4-bit header (1 sign bit + 3-bit leading-zero-byte count) plus its
  * non-zero bytes.
  *
  * GFC is double-only; single-precision input is paired into 64-bit words
  * the same way the paper's harness fed it.
  */
final class Gfc extends Codec {
  override def name: String     = "GFC"
  override def platform: String = "GPU"

  private val Sub = 32

  override def compress(block: FpBlock): Compressed = {
    val words = toWords(block)
    val out   = new BitWriter(words.length * 4 + 64)
    var prevLast = 0L
    var base = 0
    while (base < words.length) {
      val end  = math.min(base + Sub, words.length)
      val last = words(end - 1)
      var i = base
      while (i < end) {
        val r    = words(i) - prevLast
        val neg  = r < 0
        // two's-complement negate; Long.MinValue maps to itself (mag bits kept)
        val mag  = if (neg) -r else r
        var lzb  = java.lang.Long.numberOfLeadingZeros(mag) / 8
        if (lzb > 7) lzb = 7
        out.writeBits((if (neg) 8L else 0L) | lzb, 4)
        out.writeBits(mag, 8 * (8 - lzb))
        i += 1
      }
      prevLast = last
      base += Sub
    }
    val bytes = out.toArray
    // ~12 ops per input byte: variable-length byte emission partially
    // serializes warp lanes (calibrated per DESIGN.md substitution #2)
    Compressed(bytes, WorkProfile(words.length.toLong * 8 * 2, bytes.length,
                                  words.length.toLong * 96, divergent = false))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val n      = extent.product.toInt
    val nWords = (n * precision.bytes + 7) / 8
    val in     = new BitReader(data)
    val words  = new Array[Long](nWords)
    var prevLast = 0L
    var base = 0
    while (base < nWords) {
      val end = math.min(base + Sub, nWords)
      var i = base
      while (i < end) {
        val hdr = in.readBits(4).toInt
        val neg = hdr >= 8
        val mag = in.readBits(8 * (8 - (hdr & 7)))
        words(i) = prevLast + (if (neg) -mag else mag)
        i += 1
      }
      prevLast = words(end - 1)
      base += Sub
    }
    Decompressed(fromWords(words, precision, extent),
                 WorkProfile(data.length + nWords.toLong * 8, nWords.toLong * 8,
                             nWords.toLong * 80, divergent = false))
  }

  private def toWords(block: FpBlock): Array[Long] = Words.pack(block)

  private def fromWords(words: Array[Long], precision: Precision, extent: Seq[Long]): FpBlock =
    Words.unpack(words, precision, extent)
}
