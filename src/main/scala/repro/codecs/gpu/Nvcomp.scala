package repro.codecs.gpu

import repro.core._
import repro.lz.Lz4Backend

/** nvCOMP::LZ4 substitute. nvCOMP has been proprietary since v2.3 and NVIDIA
  * does not document its internals; per Table 1 its trait is
  * "transform + dictionary". We reproduce it as chunked LZ4 (64 KB chunks —
  * nvCOMP's default page) whose match-search loop is flagged *divergent*,
  * modeling the warp serialization the paper blames for nvCOMP::LZ4 being the
  * slowest GPU compressor (Observation 3) while decompression, a copy-heavy
  * loop, is not divergent (Observation 4: DT = 18.6x CT).
  */
final class NvLz4 extends Codec {
  override def name: String     = "nv:LZ4"
  override def platform: String = "GPU"

  private val ChunkBytes = 65536

  override def compress(block: FpBlock): Compressed = {
    val raw   = block.toBytes
    val parts = Frame.fixedRanges(raw.length, ChunkBytes).map { case (from, until) =>
      Lz4Backend.compress(raw, from, until - from)
    }
    val bytes = Frame.write(parts)
    Compressed(bytes, WorkProfile(raw.length.toLong * 4, bytes.length,
                                  raw.length.toLong * 12, divergent = true))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val rawLen  = extent.product.toInt * precision.bytes
    val ranges  = Frame.fixedRanges(rawLen, ChunkBytes)
    val offsets = Frame.read(data, ranges.length, ranges.length)
    val raw     = new Array[Byte](rawLen)
    ranges.indices.foreach { i =>
      val (from, until) = ranges(i)
      Lz4Backend.decompress(data, offsets(i), offsets(i + 1) - offsets(i), raw, from, until - from)
    }
    // ~20 ops/byte: LZ4 match copies form a sequential dependency chain,
    // limiting per-thread ILP even without divergence (DESIGN.md #2/#3)
    Decompressed(FpBlock.fromBytes(precision, extent, raw),
                 WorkProfile(data.length + rawLen, rawLen, rawLen.toLong * 20,
                             divergent = false))
  }
}

/** nvCOMP::bitcomp substitute. Per Table 1 bitcomp's trait is
  * "transform + prediction" with the highest throughput and the lowest CR of
  * the GPU methods: we reproduce it as chunked delta prediction + zigzag +
  * fixed-width bit packing — a branch-free, bandwidth-bound kernel, which is
  * exactly the regime the paper's roofline places bitcomp in.
  *
  * Layout per 4096-value chunk: [width:1 byte][first word raw][packed deltas].
  *
  * The encoder's output and its zigzag chunk are per thread and reused
  * across calls (see [[repro.core.KeptArray]]).
  */
final class NvBitcomp extends Codec {
  import NvBitcomp.{chunks, writers}

  override def name: String     = "nv:btcomp"
  override def platform: String = "GPU"

  private val Chunk = 4096

  override def compress(block: FpBlock): Compressed = {
    val w    = block.precision.bits
    val vals = block.bits
    val out  = writers.get.restart(vals.length * block.precision.bytes / 2 + 64)
    val zz   = chunks.get.atLeast(math.min(Chunk, vals.length))
    var base = 0
    while (base < vals.length) {
      val len = math.min(Chunk, vals.length - base)
      // zigzag deltas, width = max significant bits in the chunk
      var width = 0
      var i = 0
      while (i < len) {
        val d  = if (i == 0) 0L
                 else (vals(base + i) - vals(base + i - 1)) & Words.mask(w)
        val ds = signExtend(d, w)
        zz(i) = (ds << 1) ^ (ds >> 63)
        val bitsNeeded = 64 - java.lang.Long.numberOfLeadingZeros(zz(i))
        if (bitsNeeded > width) width = bitsNeeded
        i += 1
      }
      out.align()
      out.writeBits(width.toLong, 8)
      out.writeBits(vals(base), w)
      i = 1
      while (i < len) { out.writeBits(zz(i), width); i += 1 }
      base += len
    }
    val bytes = out.toArray
    Compressed(bytes, WorkProfile(block.sizeBytes * 2, bytes.length,
                                  vals.length.toLong * 3, divergent = false))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val w    = precision.bits
    val n    = extent.product.toInt
    val in   = new BitReader(data)
    val vals = new Array[Long](n)
    var base = 0
    while (base < n) {
      val len = math.min(Chunk, n - base)
      in.align()
      val width = in.readBits(8).toInt
      vals(base) = in.readBits(w)
      var i = 1
      while (i < len) {
        val z  = in.readBits(width)
        val ds = (z >>> 1) ^ -(z & 1)
        vals(base + i) = (vals(base + i - 1) + ds) & Words.mask(w)
        i += 1
      }
      base += len
    }
    Decompressed(FpBlock(precision, extent, vals),
                 WorkProfile(data.length + n.toLong * precision.bytes,
                             n.toLong * precision.bytes, n.toLong * 3, divergent = false))
  }

  private def signExtend(v: Long, w: Int): Long = if (w == 64) v else (v << (64 - w)) >> (64 - w)
}

object NvBitcomp {
  /** The encoder's output, one per thread (see [[BitWriter.restart]]). */
  private val writers = ThreadLocal.withInitial[BitWriter](() => new BitWriter)

  /** One thread's zigzag deltas of a chunk: at most 4096 words, 32 KiB. */
  private val chunks = KeptArray.perThread[Long](8)
}
