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
  * The transformed bytes of a block are the thread's
  * [[repro.core.Scratch.staged]] array, in both directions.
  */
final class Spdp extends Codec {
  override def name: String     = "SPDP"
  override def platform: String = "CPU"

  /** LNVs2 and DIM8 in one pass over the block's 8-byte rows, then LNVs1 in
    * place, then LZa6: the bytes `toBytes` and three separate passes would
    * give, from one array.
    */
  override def compress(block: FpBlock): Compressed = {
    val len = block.n * block.precision.bytes
    val s   = Scratch.get.staged.atLeast(len)
    shuffle(block, s)
    difference(s, len)
    val (lz, lzWork) = Lza6.compress(s, len)
    val transformWork = WorkProfile(len.toLong * 3, len.toLong * 3,
                                    len.toLong * 6, divergent = false)
    Compressed(lz, transformWork + lzWork)
  }

  /** LNVs2 then DIM8 of the block's little-endian bytes, into the first
    * `n × precision.bytes` bytes of `s`. Row `i` of the bytes goes to byte
    * `i` of each of the 8 columns, and a byte loses the byte two before it:
    * `w2` holds, for each byte of the row `w`, that earlier byte. The tail
    * (< 8 bytes) stays in place.
    */
  private def shuffle(block: FpBlock, s: Array[Byte]): Unit = {
    val bits = block.bits
    val pb   = block.precision.bytes
    val len  = bits.length * pb
    val rows = len / 8
    var p2   = 0L
    var p1   = 0L
    var i    = 0
    while (i < rows) {
      val w  = if (pb == 8) bits(i) else (bits(2 * i) & 0xffffffffL) | (bits(2 * i + 1) << 32)
      val w2 = (w << 16) | (p1 << 8) | p2
      s(i)            = (w - w2).toByte
      s(rows + i)     = ((w >>> 8) - (w2 >>> 8)).toByte
      s(2 * rows + i) = ((w >>> 16) - (w2 >>> 16)).toByte
      s(3 * rows + i) = ((w >>> 24) - (w2 >>> 24)).toByte
      s(4 * rows + i) = ((w >>> 32) - (w2 >>> 32)).toByte
      s(5 * rows + i) = ((w >>> 40) - (w2 >>> 40)).toByte
      s(6 * rows + i) = ((w >>> 48) - (w2 >>> 48)).toByte
      s(7 * rows + i) = ((w >>> 56) - (w2 >>> 56)).toByte
      p2 = (w >>> 48) & 0xff
      p1 = w >>> 56
      i += 1
    }
    var k = rows * 8
    while (k < len) {
      val b = (bits(k / pb) >>> (8 * (k % pb))) & 0xff
      s(k) = (b - p2).toByte
      p2 = p1; p1 = b
      k += 1
    }
  }

  /** LNVs1 in place over `b(0 until len)`: b(i) -= b(i-1), wrapping mod 256. */
  private def difference(b: Array[Byte], len: Int): Unit = {
    var prev = 0
    var i    = 0
    while (i < len) { val c = b(i); b(i) = (c - prev).toByte; prev = c; i += 1 }
  }

  /** Undoes the stages in reverse: LNVs1 by a running sum over the LZ
    * output in place, then DIM8 and LNVs2 in one pass over the 8-byte rows
    * that writes each value straight into the block.
    */
  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val rawLen = extent.product.toInt * precision.bytes
    val s      = Scratch.get.staged.atLeast(rawLen)
    val lzWork = Lza6.decompress(data, s, rawLen)
    prefixSum(s, rawLen)
    val transformWork = WorkProfile(rawLen.toLong * 3, rawLen.toLong * 3,
                                    rawLen.toLong * 6, divergent = false)
    Decompressed(FpBlock(precision, extent, unshuffle(s, rawLen, precision)), transformWork + lzWork)
  }

  /** LNVs1⁻¹ in place over `b(0 until len)`: b(i) += b(i-1), wrapping mod 256. */
  private def prefixSum(b: Array[Byte], len: Int): Unit = {
    var sum = 0
    var i   = 0
    while (i < len) { sum += b(i); b(i) = sum.toByte; i += 1 }
  }

  /** DIM8⁻¹ then LNVs2⁻¹ of `s(0 until len)`, as little-endian values of
    * `precision`.
    * Row `i` of the stream is byte `i` of each of the 8 columns; a raw byte
    * adds the raw byte two before it, which `p2` and `p1` carry from row to
    * row and into the tail.
    */
  private def unshuffle(s: Array[Byte], len: Int, precision: Precision): Array[Long] = {
    val pb   = precision.bytes
    val bits = new Array[Long](len / pb)
    val rows = len / 8
    var p2   = 0
    var p1   = 0
    var i    = 0
    while (i < rows) {
      val b0 = (s(i) + p2) & 0xff
      val b1 = (s(rows + i) + p1) & 0xff
      val b2 = (s(2 * rows + i) + b0) & 0xff
      val b3 = (s(3 * rows + i) + b1) & 0xff
      val b4 = (s(4 * rows + i) + b2) & 0xff
      val b5 = (s(5 * rows + i) + b3) & 0xff
      val b6 = (s(6 * rows + i) + b4) & 0xff
      val b7 = (s(7 * rows + i) + b5) & 0xff
      val lo = (b0 | (b1 << 8) | (b2 << 16) | (b3 << 24)) & 0xffffffffL
      val hi = (b4 | (b5 << 8) | (b6 << 16) | (b7 << 24)) & 0xffffffffL
      if (pb == 8) bits(i) = lo | (hi << 32)
      else { bits(2 * i) = lo; bits(2 * i + 1) = hi }
      p2 = b6; p1 = b7
      i += 1
    }
    var k = rows * 8
    while (k < len) {
      val b = (s(k) + p2) & 0xff
      bits(k / pb) |= b.toLong << (8 * (k % pb))
      p2 = p1; p1 = b
      k += 1
    }
    bits
  }
}
