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
  *
  * Each chunk's raw bytes are written straight from, or read straight into,
  * the block's words ([[repro.lz.LzBackend.compressParts]]).
  */
final class NvLz4 extends Codec {
  override def name: String     = "nv:LZ4"
  override def platform: String = "GPU"

  private val ChunkBytes = 65536

  override def compress(block: FpBlock): Compressed = {
    val rawLen = block.sizeBytes.toInt
    val bytes  = Lz4Backend.compressParts(rawLen, ChunkBytes, 1) { (from, until, raw) =>
      block.writeBytes(from / block.precision.bytes, raw, until - from)
    }
    Compressed(bytes, WorkProfile(rawLen.toLong * 4, bytes.length,
                                  rawLen.toLong * 12, divergent = true))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val rawLen  = extent.product.toInt * precision.bytes
    val bits    = new Array[Long](rawLen / precision.bytes)
    Lz4Backend.decompressParts(data, rawLen, ChunkBytes, 1) { (from, until, raw) =>
      FpBlock.readBytes(precision, raw, until - from, bits, from / precision.bytes)
    }
    // ~20 ops/byte: LZ4 match copies form a sequential dependency chain,
    // limiting per-thread ILP even without divergence (DESIGN.md #2/#3)
    Decompressed(FpBlock(precision, extent, bits),
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
  * The encoder's output and its zigzag chunk are the thread's
  * [[repro.core.Scratch.bits]] and [[repro.core.Scratch.words]].
  */
final class NvBitcomp extends Codec {
  override def name: String     = "nv:btcomp"
  override def platform: String = "GPU"

  private val Chunk = 4096

  override def compress(block: FpBlock): Compressed = {
    val w    = block.precision.bits
    val vals = block.bits
    val s    = Scratch.get
    val out  = s.bits.restart(vals.length * block.precision.bytes / 2 + 64)
    val zz   = s.words.atLeast(math.min(Chunk, vals.length))
    var base = 0
    while (base < vals.length) {
      val len = math.min(Chunk, vals.length - base)
      // zigzag deltas, width = max significant bits in the chunk
      var width = 0
      var i = 0
      while (i < len) {
        zz(i) = if (i == 0) 0L else Words.zigzag(vals(base + i) - vals(base + i - 1), w)
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
        vals(base + i) = (vals(base + i - 1) + Words.unzigzag(in.readBits(width))) & Words.mask(w)
        i += 1
      }
      base += len
    }
    Decompressed(FpBlock(precision, extent, vals),
                 WorkProfile(data.length + n.toLong * precision.bytes,
                             n.toLong * precision.bytes, n.toLong * 3, divergent = false))
  }
}
