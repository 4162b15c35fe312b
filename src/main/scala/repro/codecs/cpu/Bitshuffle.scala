package repro.codecs.cpu

import repro.core._
import repro.lz.{Lz4Backend, LzBackend, ZstdBackend}

/** Bitshuffle [Masui et al., 2015] — bit-level transpose + LZ4/zstd.
  *
  * Within each 4096-byte transpose chunk (sized to the L1 cache, as the
  * reference implementation's default), the chunk's bits are viewed as an
  * m x n matrix (m values of n bits) and transposed so that the i-th bits of
  * all values become consecutive bytes. The shuffled stream is then encoded
  * per compression block by `backend`, LZ4 or zstd. Blocks compress
  * independently, so thread-level parallelism distributes blocks over a pool
  * (Tables 7/8). Compression blocks are a fixed 64 KiB, each shuffled into
  * or unshuffled from its staged bytes ([[LzBackend.compressParts]]).
  */
abstract class BitshuffleBase(val threads: Int, backend: LzBackend) extends ThreadedCodec {
  import BitshuffleBase._

  override def platform: String = "CPU"

  override def compress(block: FpBlock): Compressed = {
    val elemSize = block.precision.bytes
    val rawLen   = block.n * elemSize
    val bytes = backend.compressParts(rawLen, BlockBytes, threads) { (from, until, shuffled) =>
      shuffle(block.bits, from / elemSize, shuffled, until - from, elemSize)
    }
    Compressed(bytes, WorkProfile(rawLen.toLong * 3, bytes.length,
                                  rawLen.toLong * 10, divergent = false))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val n        = extent.product.toInt
    val elemSize = precision.bytes
    val rawLen   = n * elemSize
    val bits     = new Array[Long](n)
    backend.decompressParts(data, rawLen, BlockBytes, threads) { (from, until, shuffled) =>
      unshuffle(shuffled, until - from, bits, from / elemSize, elemSize)
    }
    Decompressed(FpBlock(precision, extent, bits),
                 WorkProfile(data.length, rawLen, rawLen.toLong * 10, divergent = false))
  }
}

/** The transpose, from the block's words into the shuffled bytes of one
  * compression block and back, without a little-endian byte copy of the
  * block in between.
  *
  * Bit plane p of a chunk of m values (m/8 bytes wide) holds bit `p ^ 7` of
  * each of the first `m & ~7` values: byte g of the plane gathers values
  * 8g..8g+7, value 8g+r at bit `7 - r`. The planes are built 64 values at a
  * time. Doubles: value i of the group goes to word `i ^ 7`,
  * `core.BitTranspose.square` turns the 64 words into planes, and word q is
  * the group's 8 bytes of plane `q ^ 7`, little-endian. Singles: values i and
  * 32 + i share word `i ^ 7`, low half and high half, and
  * `BitTranspose.squarePair32` transposes both halves, so that word q again
  * holds the group's 8 bytes of plane `q ^ 7`. The last `m % 8` values
  * follow the planes as little-endian bytes.
  *
  * A whole group stores and loads each plane word with one little-endian
  * word access ([[repro.core.Words.putLongLE]], [[repro.core.Words.longLE]]);
  * a short group's words are `count / 8` bytes wide.
  */
object BitshuffleBase {
  /** Bytes per transpose chunk, L1-resident per the reference implementation. */
  private val TransposeChunk = 4096
  /** Bytes per compression block. */
  val BlockBytes = 65536
  /** Values per transpose group. */
  private val Group = 64

  /** Shuffle the `len / elemSize` values of `bits` from `first` on into
    * `out(0 until len)`, chunk by chunk.
    */
  def shuffle(bits: Array[Long], first: Int, out: Array[Byte], len: Int, elemSize: Int): Unit = {
    val group = new Array[Long](elemSize * 8)
    var c = 0
    while (c < len) {
      val l = math.min(TransposeChunk, len - c)
      shuffleChunk(bits, first + c / elemSize, l / elemSize, out, c, elemSize, group)
      c += l
    }
  }

  /** Unshuffle `in(0 until len)`, the output of [[shuffle]], into
    * `bits(first until first + len / elemSize)`.
    */
  def unshuffle(in: Array[Byte], len: Int, bits: Array[Long], first: Int, elemSize: Int): Unit = {
    val group = new Array[Long](elemSize * 8)
    var c = 0
    while (c < len) {
      val l = math.min(TransposeChunk, len - c)
      unshuffleChunk(in, c, bits, first + c / elemSize, l / elemSize, elemSize, group)
      c += l
    }
  }

  /** Shuffle values `v0 until v0 + m` into the chunk at `out(o)`. A short
    * last group (a multiple of 8 values) leaves its empty slots zero, whose
    * plane bytes it does not store.
    */
  private def shuffleChunk(bits: Array[Long], v0: Int, m: Int, out: Array[Byte], o: Int,
                           elemSize: Int, group: Array[Long]): Unit = {
    val words = group.length
    val mm    = m & ~7
    val w     = mm >> 3
    var e = 0
    while (e < mm) {
      val count = math.min(Group, mm - e)
      val g0    = v0 + e
      var s = 0
      if (count < Group) {
        java.util.Arrays.fill(group, 0L)
        while (s < count) {
          val x = bits(g0 + s)
          if (words == Group) group(s ^ 7) = x
          else group((s & 31) ^ 7) |= (x & 0xffffffffL) << (s & 32)
          s += 1
        }
      } else if (words == Group) {
        while (s < Group) { group(s) = bits(g0 + (s ^ 7)); s += 1 }
      } else {
        while (s < 32) { group(s) = (bits(g0 + (s ^ 7)) & 0xffffffffL) | (bits(g0 + 32 + (s ^ 7)) << 32); s += 1 }
      }
      if (words == Group) BitTranspose.square(group, 0, Group) else BitTranspose.squarePair32(group, 0)
      val at = o + (e >> 3)
      var q = 0
      if (count < Group) {
        while (q < words) { Words.writeWordLE(out, at + (q ^ 7) * w, group(q), count >> 3); q += 1 }
      } else {
        while (q < words) { Words.putLongLE(out, at + (q ^ 7) * w, group(q)); q += 1 }
      }
      e += Group
    }
    var i = mm
    while (i < m) { Words.writeWordLE(out, o + i * elemSize, bits(v0 + i), elemSize); i += 1 }
  }

  /** The inverse of [[shuffleChunk]]. */
  private def unshuffleChunk(in: Array[Byte], o: Int, bits: Array[Long], v0: Int, m: Int,
                             elemSize: Int, group: Array[Long]): Unit = {
    val words = group.length
    val mm    = m & ~7
    val w     = mm >> 3
    var e = 0
    while (e < mm) {
      val count = math.min(Group, mm - e)
      val g0    = v0 + e
      val at    = o + (e >> 3)
      var q = 0
      if (count < Group) {
        while (q < words) { group(q) = Words.readWordLE(in, at + (q ^ 7) * w, count >> 3); q += 1 }
      } else {
        while (q < words) { group(q) = Words.longLE(in, at + (q ^ 7) * w); q += 1 }
      }
      var s = 0
      if (words == Group) {
        BitTranspose.square(group, 0, Group)
        while (s < count) { bits(g0 + s) = group(s ^ 7); s += 1 }
      } else {
        BitTranspose.squarePair32(group, 0)
        while (s < count) { bits(g0 + s) = (group((s & 31) ^ 7) >>> (s & 32)) & 0xffffffffL; s += 1 }
      }
      e += Group
    }
    var i = mm
    while (i < m) { bits(v0 + i) = Words.readWordLE(in, o + i * elemSize, elemSize); i += 1 }
  }
}

/** bitshuffle::LZ4 — the shuffled stream encoded with LZ4. */
final class BitshuffleLz4(threads: Int = Runtime.getRuntime.availableProcessors())
    extends BitshuffleBase(threads, Lz4Backend) {
  override def name: String = "shf+LZ4"
  override def withThreads(t: Int): Codec = new BitshuffleLz4(t)
}

/** bitshuffle::zstd — the shuffled stream encoded with zstd. */
final class BitshuffleZstd(threads: Int = Runtime.getRuntime.availableProcessors())
    extends BitshuffleBase(threads, ZstdBackend) {
  override def name: String = "shf+zstd"
  override def withThreads(t: Int): Codec = new BitshuffleZstd(t)
}
