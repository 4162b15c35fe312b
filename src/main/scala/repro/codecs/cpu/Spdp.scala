package repro.codecs.cpu

import repro.core._
import repro.lz.Lza6

/** SPDP [Claggett, Azimi & Burtscher, DCC'18] — a synthesized pipeline of
  * three byte-level transforms plus an LZ77-style reducer, selected by the
  * authors from a 9.4M-combination search:
  *
  *   1. LNVs2 — subtract the byte two positions earlier (exposes correlation
  *      between alternating bytes).
  *   2. DIM8  — transpose the stream with stride 8, grouping most-significant
  *      bytes together so exponent bytes become consecutive.
  *   3. LNVs1 — subtract the previous byte of the transposed stream.
  *   4. LZa6  — fast sliding-window LZ77 over the final residuals.
  *
  * SPDP is serial; its ratio/throughput trade-off lives in LZa6's window.
  */
final class Spdp extends Codec {
  override def name: String     = "SPDP"
  override def platform: String = "CPU"

  override def compress(block: FpBlock): Compressed = {
    val raw = block.toBytes
    val s1  = lnvSub(raw, 2)
    val s2  = dim8Forward(s1)
    val s3  = lnvSub(s2, 1)
    val (lz, lzWork) = Lza6.compress(s3)
    val transformWork = WorkProfile(raw.length.toLong * 3, raw.length.toLong * 3,
                                    raw.length.toLong * 6, divergent = false)
    Compressed(lz, transformWork + lzWork)
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val rawLen = extent.product.toInt * precision.bytes
    val (s3, lzWork) = Lza6.decompress(data, rawLen)
    val s2  = lnvAdd(s3, 1)
    val s1  = dim8Inverse(s2)
    val raw = lnvAdd(s1, 2)
    val transformWork = WorkProfile(rawLen.toLong * 3, rawLen.toLong * 3,
                                    rawLen.toLong * 6, divergent = false)
    Decompressed(FpBlock.fromBytes(precision, extent, raw), transformWork + lzWork)
  }

  /** r(i) = b(i) - b(i-stride), wrapping mod 256; leading bytes pass through. */
  private def lnvSub(in: Array[Byte], stride: Int): Array[Byte] = {
    val out  = new Array[Byte](in.length)
    val lead = math.min(stride, in.length)
    System.arraycopy(in, 0, out, 0, lead)
    var i = lead
    while (i < in.length) { out(i) = (in(i) - in(i - stride)).toByte; i += 1 }
    out
  }

  private def lnvAdd(in: Array[Byte], stride: Int): Array[Byte] = {
    val out  = new Array[Byte](in.length)
    val lead = math.min(stride, in.length)
    System.arraycopy(in, 0, out, 0, lead)
    var i = lead
    while (i < in.length) { out(i) = (in(i) + out(i - stride)).toByte; i += 1 }
    out
  }

  /** Transpose the stream viewed as rows of 8 bytes; the tail (< 8 bytes)
    * is appended untouched.
    */
  private def dim8Forward(in: Array[Byte]): Array[Byte] = {
    val rows = in.length / 8
    val out  = new Array[Byte](in.length)
    var j = 0
    while (j < 8) {
      var i = 0
      while (i < rows) { out(j * rows + i) = in(i * 8 + j); i += 1 }
      j += 1
    }
    System.arraycopy(in, rows * 8, out, rows * 8, in.length - rows * 8)
    out
  }

  private def dim8Inverse(in: Array[Byte]): Array[Byte] = {
    val rows = in.length / 8
    val out  = new Array[Byte](in.length)
    var j = 0
    while (j < 8) {
      var i = 0
      while (i < rows) { out(i * 8 + j) = in(j * rows + i); i += 1 }
      j += 1
    }
    System.arraycopy(in, rows * 8, out, rows * 8, in.length - rows * 8)
    out
  }
}
