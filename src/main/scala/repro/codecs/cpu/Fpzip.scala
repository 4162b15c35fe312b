package repro.codecs.cpu

import repro.core._

/** fpzip [Lindstrom & Isenburg, TVCG'06] — Lorenzo-predicted residual coding.
  *
  * 1. Map each IEEE bit pattern to an order-preserving sign-magnitude integer
  *    (negative values bit-complemented, positives offset by the sign bit) so
  *    integer subtraction of prediction and actual is meaningful and lossless.
  * 2. Predict each value from its previously-encoded hypercube neighbors with
  *    the Lorenzo predictor (1-, 2- or 3-D); boundary values fall back to the
  *    scan-order predecessor.
  * 3. Range-code the residual's magnitude class (position of its highest set
  *    bit after zigzag mapping) with an adaptive order-0 model — the
  *    equivalent of fpzip's fast range coder over sign + leading zeros.
  * 4. Copy the remaining significant bits verbatim.
  *
  * fpzip is a serial method; no thread parallelism is used. Its two
  * writers, both live at once, are the thread's [[repro.core.Scratch.symbols]]
  * (the range-coded symbols) and [[repro.core.Scratch.bits]] (the verbatim
  * bits); the stream joins their bytes behind the symbols' 4-byte length,
  * each copied once, straight from its writer.
  */
final class Fpzip extends Codec {
  import Fpzip.Lorenzo

  override def name: String     = "fpzip"
  override def platform: String = "CPU"

  override def compress(block: FpBlock): Compressed = {
    val w      = block.precision.bits
    val mapped = new Array[Long](block.n)
    var i      = 0
    while (i < mapped.length) { mapped(i) = mapOrdered(block.bits(i), w); i += 1 }
    val kept   = Scratch.get
    val enc    = new RangeEncoder(kept.symbols.restart(block.n / 2 + 64))
    val model  = new AdaptiveModel(w + 1)
    val raw    = kept.bits.restart(block.n * block.precision.bytes / 2 + 64)

    val lorenzo = new Lorenzo(block.extent)
    i = 0
    while (i < mapped.length) {
      val pred = lorenzo.predict(mapped, i)
      val z    = Words.zigzag(mapped(i) - pred, w) // the w-bit residual, zigzagged into w bits
      val sym  = 64 - java.lang.Long.numberOfLeadingZeros(z) // magnitude class 0..w
      model.encodeSymbol(enc, sym)
      if (sym > 1) raw.writeBits(z, sym - 1) // top bit of z is implicit
      i += 1
    }
    val symbols = enc.finish()
    val symLen  = symbols.sizeBytes
    val bytes   = new Array[Byte](4 + symLen + raw.sizeBytes)
    Words.writeWordLE(bytes, 0, symLen, 4)
    symbols.copyTo(bytes, 4)
    raw.copyTo(bytes, 4 + symLen)
    Compressed(bytes, WorkProfile(block.sizeBytes, bytes.length,
                                  block.n.toLong * 40, divergent = false))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val w        = precision.bits
    val n        = extent.product.toInt
    require(data.length >= 4, s"fpzip stream of ${data.length} bytes has no header")
    val symLen   = Words.readWordLE(data, 0, 4).toInt
    require(symLen >= 0 && symLen <= data.length - 4,
            s"fpzip symbol stream of $symLen bytes does not fit a ${data.length}-byte stream")
    val dec      = new RangeDecoder(data, 4, 4 + symLen)
    val raw      = new BitReader(data, 4 + symLen)
    val model    = new AdaptiveModel(w + 1)
    val mapped   = new Array[Long](n)
    val lorenzo  = new Lorenzo(extent)
    var i = 0
    while (i < n) {
      val sym  = model.decodeSymbol(dec)
      val z =
        if (sym == 0) 0L
        else if (sym == 1) 1L
        else (1L << (sym - 1)) | raw.readBits(sym - 1)
      val pred = lorenzo.predict(mapped, i)
      mapped(i) = (pred + Words.unzigzag(z)) & Words.mask(w)
      i += 1
    }
    i = 0
    while (i < n) { mapped(i) = unmapOrdered(mapped(i), w); i += 1 }
    Decompressed(FpBlock(precision, extent, mapped),
                 WorkProfile(data.length, n.toLong * precision.bytes,
                             n.toLong * 40, divergent = false))
  }

  /** Order-preserving sign-magnitude map of a w-bit IEEE pattern (as Long). */
  private def mapOrdered(bits: Long, w: Int): Long = {
    val sign = 1L << (w - 1)
    if ((bits & sign) != 0) (~bits) & Words.mask(w) else bits | sign
  }

  private def unmapOrdered(m: Long, w: Int): Long = {
    val sign = 1L << (w - 1)
    val mm   = m & Words.mask(w)
    if ((mm & sign) != 0) mm & ~sign & Words.mask(w) else (~mm) & Words.mask(w)
  }
}

object Fpzip {
  /** Lorenzo prediction from previously coded neighbors over `extent`
    * (fastest-varying dimension last; beyond three, the last two dimensions
    * form the plane). Boundary cells use the scan-order predecessor, and the
    * very first value is predicted as 0. The sides are read once per block, so
    * the per-value path does no collection access.
    */
  private final class Lorenzo(extent: Seq[Long]) {
    private val dims  = extent.length
    private val nx    = extent.last.toInt // fastest-varying side
    private val plane = if (dims >= 3) (extent(dims - 2) * extent(dims - 1)).toInt else 0

    def predict(v: Array[Long], i: Int): Long =
      if (i == 0) 0L
      else if (dims == 1) v(i - 1)
      else if (dims == 2) {
        if (i < nx || i % nx == 0) v(i - 1)
        else v(i - 1) + v(i - nx) - v(i - nx - 1)
      } else {
        if (i < plane || i % plane < nx || i % nx == 0) v(i - 1)
        else v(i - 1) + v(i - nx) + v(i - plane) -
             v(i - nx - 1) - v(i - plane - 1) - v(i - plane - nx) +
             v(i - plane - nx - 1)
      }
  }
}
