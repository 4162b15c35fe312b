package repro.codecs

import repro.core._
import repro.lz.Lza6

/** The SPDP coder that ran each stage in its own pass over its own array
  * (`toBytes`, LNVs2, DIM8, LNVs1 to encode; LNVs1, DIM8, LNVs2, then
  * `FpBlock.fromBytes` to decode), kept as the oracle the fused passes must
  * match byte for byte and in their `WorkProfile` (see [[SpdpSpec]]).
  */
object ThreePassSpdp {
  def compress(block: FpBlock): Compressed = {
    val raw = block.toBytes
    val s1  = lnvSub(raw, 2)
    val s2  = dim8Forward(s1)
    val s3  = lnvSub(s2, 1)
    val (lz, lzWork) = Lza6.compress(s3)
    val transformWork = WorkProfile(raw.length.toLong * 3, raw.length.toLong * 3,
                                    raw.length.toLong * 6, divergent = false)
    Compressed(lz, transformWork + lzWork)
  }

  def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val rawLen = extent.product.toInt * precision.bytes
    val (s3, lzWork) = Lza6.decompress(data, rawLen)
    val s2  = lnvAdd(s3, 1)
    val s1  = dim8Inverse(s2)
    val raw = lnvAdd(s1, 2)
    val transformWork = WorkProfile(rawLen.toLong * 3, rawLen.toLong * 3,
                                    rawLen.toLong * 6, divergent = false)
    Decompressed(FpBlock.fromBytes(precision, extent, raw), transformWork + lzWork)
  }

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
