package repro.codecs.cpu

import repro.core._
import repro.lz.{Lz4Backend, ZstdBackend}

/** Bitshuffle [Masui et al., 2015] — bit-level transpose + LZ4/zstd.
  *
  * Within each 4096-byte transpose chunk (sized to the L1 cache, as the
  * reference implementation's default), the chunk's bits are viewed as an
  * m x n matrix (m values of n bits) and transposed so that the i-th bits of
  * all values become consecutive bytes. The shuffled stream is then encoded
  * per compression block by LZ4 or zstd. Blocks compress independently, so
  * thread-level parallelism distributes blocks over a pool (Tables 7/8).
  * Compression blocks are a fixed 64 KiB.
  */
abstract class BitshuffleBase(val threads: Int) extends ThreadedCodec {
  override def platform: String = "CPU"

  protected def encode(in: Array[Byte]): Array[Byte]
  protected def decode(in: Array[Byte], outLen: Int): Array[Byte]

  private val TransposeChunk = 4096 // bytes, L1-resident per the reference impl
  private val BlockBytes     = 65536

  override def compress(block: FpBlock): Compressed = {
    val raw      = block.toBytes
    val elemSize = block.precision.bytes
    val ranges   = Frame.fixedRanges(raw.length, BlockBytes)
    val parts = Parallel.map(ranges, threads) { case (from, until) =>
      val shuffled = shuffle(raw, from, until, elemSize)
      encode(shuffled)
    }
    val bytes = Frame.write(parts).toArray
    Compressed(bytes, WorkProfile(raw.length.toLong * 3, bytes.length,
                                  raw.length.toLong * 10, divergent = false))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val rawLen   = extent.product.toInt * precision.bytes
    val elemSize = precision.bytes
    val ranges   = Frame.fixedRanges(rawLen, BlockBytes)
    val offsets  = Frame.read(data, ranges.length, ranges.length)
    val raw      = new Array[Byte](rawLen)
    Parallel.map(ranges.indices, threads) { bi =>
      val (from, until) = ranges(bi)
      val part     = java.util.Arrays.copyOfRange(data, offsets(bi), offsets(bi + 1))
      val shuffled = decode(part, until - from)
      unshuffle(shuffled, raw, from, until, elemSize)
    }
    Decompressed(FpBlock.fromBytes(precision, extent, raw),
                 WorkProfile(data.length, rawLen, rawLen.toLong * 10, divergent = false))
  }

  /** Bit-transpose `in(from until until)` in 4096-byte chunks. Bytes beyond
    * the last whole group of `elemSize * 8` stay verbatim at the chunk tail.
    */
  private def shuffle(in: Array[Byte], from: Int, until: Int, elemSize: Int): Array[Byte] = {
    val out = new Array[Byte](until - from)
    var base = from
    while (base < until) {
      val chunkLen = math.min(TransposeChunk, until - base)
      transpose(in, base, out, base - from, chunkLen, elemSize, forward = true)
      base += chunkLen
    }
    out
  }

  private def unshuffle(in: Array[Byte], out: Array[Byte], from: Int, until: Int, elemSize: Int): Unit = {
    var base = from
    while (base < until) {
      val chunkLen = math.min(TransposeChunk, until - base)
      transpose(in, base - from, out, base, chunkLen, elemSize, forward = false)
      base += chunkLen
    }
  }

  /** Bit-transpose a chunk: bit plane p = k*8+b (byte k, bit b of each
    * element) becomes a contiguous run of mm/8 bytes. Elements are processed
    * in groups of 8 through a 64-bit 8x8 bit-matrix transpose (Hacker's
    * Delight §7-3) — the scalar stand-in for bitshuffle's SSE2/AVX2 kernels.
    * Elements beyond the last group of 8, and tail bytes of a partial
    * element, pass through verbatim.
    */
  private def transpose(src: Array[Byte], srcOff: Int, dst: Array[Byte], dstOff: Int,
                        len: Int, elemSize: Int, forward: Boolean): Unit = {
    val m  = len / elemSize      // whole elements in this chunk
    val mm = (m / 8) * 8         // elements handled by the 8x8 fast path
    val w  = mm / 8              // bytes per bit plane
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
    // leftover whole elements (m % 8) + tail bytes of a partial element
    System.arraycopy(src, srcOff + mm * elemSize, dst, dstOff + mm * elemSize,
                     len - mm * elemSize)
  }

  /** Transpose the 8x8 bit matrix packed row-major in a 64-bit word. */
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

/** bitshuffle::LZ4 — the shuffled stream encoded with LZ4. */
final class BitshuffleLz4(threads: Int = Runtime.getRuntime.availableProcessors())
    extends BitshuffleBase(threads) {
  override def name: String = "shf+LZ4"
  override def withThreads(t: Int): Codec = new BitshuffleLz4(t)
  override protected def encode(in: Array[Byte]): Array[Byte] = Lz4Backend.compress(in)
  override protected def decode(in: Array[Byte], outLen: Int): Array[Byte] =
    Lz4Backend.decompress(in, outLen)
}

/** bitshuffle::zstd — the shuffled stream encoded with zstd. */
final class BitshuffleZstd(threads: Int = Runtime.getRuntime.availableProcessors())
    extends BitshuffleBase(threads) {
  override def name: String = "shf+zstd"
  override def withThreads(t: Int): Codec = new BitshuffleZstd(t)
  override protected def encode(in: Array[Byte]): Array[Byte] = ZstdBackend.compress(in)
  override protected def decode(in: Array[Byte], outLen: Int): Array[Byte] =
    ZstdBackend.decompress(in, outLen)
}
