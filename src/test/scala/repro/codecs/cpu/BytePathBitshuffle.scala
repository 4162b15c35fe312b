package repro.codecs.cpu

import net.jpountz.lz4.LZ4Factory

import repro.core._

/** Bitshuffle as it was before the transpose read and wrote the block's
  * words: `FpBlock.toBytes`, a per-byte gather and scatter around an 8x8 bit
  * transpose, a copy of every part, and LZ4 or zstd through the library's
  * one-shot calls (a new zstd context per call). Kept as the oracle the
  * word-path codecs must match byte for byte (see [[BitshuffleSpec]]).
  */
object BytePathBitshuffle {
  private val TransposeChunk = 4096
  private val BlockBytes     = 65536
  private val lz4            = LZ4Factory.fastestJavaInstance()

  sealed trait Backend
  case object Lz4  extends Backend
  case object Zstd extends Backend

  def encode(backend: Backend, in: Array[Byte]): Array[Byte] = backend match {
    case Lz4 =>
      val c   = lz4.fastCompressor()
      val max = c.maxCompressedLength(in.length)
      val buf = new Array[Byte](max)
      java.util.Arrays.copyOf(buf, c.compress(in, 0, in.length, buf, 0, max))
    case Zstd => com.github.luben.zstd.Zstd.compress(in, 3)
  }

  private def decode(backend: Backend, in: Array[Byte], outLen: Int): Array[Byte] = {
    val out = new Array[Byte](outLen)
    backend match {
      case Lz4  => lz4.safeDecompressor().decompress(in, 0, in.length, out, 0, outLen)
      case Zstd => com.github.luben.zstd.Zstd.decompress(out, in)
    }
    out
  }

  def compress(backend: Backend, block: FpBlock): Compressed = {
    val raw      = block.toBytes
    val elemSize = block.precision.bytes
    val parts = Frame.fixedRanges(raw.length, BlockBytes).map { case (from, until) =>
      encode(backend, shuffle(raw, from, until, elemSize))
    }
    val bytes = FrameOf(parts)
    Compressed(bytes, WorkProfile(raw.length.toLong * 3, bytes.length,
                                  raw.length.toLong * 10, divergent = false))
  }

  def decompress(backend: Backend, data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val rawLen   = extent.product.toInt * precision.bytes
    val elemSize = precision.bytes
    val ranges   = Frame.fixedRanges(rawLen, BlockBytes)
    val offsets  = Frame.read(data, ranges.length, ranges.length)
    val raw      = new Array[Byte](rawLen)
    ranges.indices.foreach { bi =>
      val (from, until) = ranges(bi)
      val part = java.util.Arrays.copyOfRange(data, offsets(bi), offsets(bi + 1))
      unshuffle(decode(backend, part, until - from), raw, from, until, elemSize)
    }
    Decompressed(FpBlock.fromBytes(precision, extent, raw),
                 WorkProfile(data.length, rawLen, rawLen.toLong * 10, divergent = false))
  }

  /** The shuffled bytes of `in(from until until)`, one block's worth. */
  def shuffle(in: Array[Byte], from: Int, until: Int, elemSize: Int): Array[Byte] = {
    val out = new Array[Byte](until - from)
    var base = from
    while (base < until) {
      val chunkLen = math.min(TransposeChunk, until - base)
      transpose(in, base, out, base - from, chunkLen, elemSize, forward = true)
      base += chunkLen
    }
    out
  }

  def unshuffle(in: Array[Byte], out: Array[Byte], from: Int, until: Int, elemSize: Int): Unit = {
    var base = from
    while (base < until) {
      val chunkLen = math.min(TransposeChunk, until - base)
      transpose(in, base - from, out, base, chunkLen, elemSize, forward = false)
      base += chunkLen
    }
  }

  private def transpose(src: Array[Byte], srcOff: Int, dst: Array[Byte], dstOff: Int,
                        len: Int, elemSize: Int, forward: Boolean): Unit = {
    val m  = len / elemSize
    val mm = (m / 8) * 8
    val w  = mm / 8
    var k = 0
    while (k < elemSize) {
      var g = 0
      while (g < w) {
        if (forward) {
          var x = 0L
          var r = 0
          while (r < 8) {
            x |= (src(srcOff + (8 * g + r) * elemSize + k) & 0xffL) << (8 * (7 - r))
            r += 1
          }
          val y = transpose8x8(x)
          var b = 0
          while (b < 8) {
            dst(dstOff + (k * 8 + b) * w + g) = ((y >>> (8 * (7 - b))) & 0xff).toByte
            b += 1
          }
        } else {
          var y = 0L
          var b = 0
          while (b < 8) {
            y |= (src(srcOff + (k * 8 + b) * w + g) & 0xffL) << (8 * (7 - b))
            b += 1
          }
          val x = transpose8x8(y)
          var r = 0
          while (r < 8) {
            dst(dstOff + (8 * g + r) * elemSize + k) = ((x >>> (8 * (7 - r))) & 0xff).toByte
            r += 1
          }
        }
        g += 1
      }
      k += 1
    }
    System.arraycopy(src, srcOff + mm * elemSize, dst, dstOff + mm * elemSize,
                     len - mm * elemSize)
  }

  private def transpose8x8(in: Long): Long = {
    var x = in
    var t = (x ^ (x >>> 7)) & 0x00aa00aa00aa00aaL
    x = x ^ t ^ (t << 7)
    t = (x ^ (x >>> 14)) & 0x0000cccc0000ccccL
    x = x ^ t ^ (t << 14)
    t = (x ^ (x >>> 28)) & 0x00000000f0f0f0f0L
    x = x ^ t ^ (t << 28)
    x
  }
}
