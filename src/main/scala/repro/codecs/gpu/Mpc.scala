package repro.codecs.gpu

import repro.core._

/** MPC [Yang et al., Cluster'15] — Massively Parallel Compression, a
  * synthesized four-component pipeline over 1024-element chunks:
  *
  *   1. LNV6s — subtract the 6th prior value within the chunk.
  *   2. BIT   — bit transpose (the i-th bits of all words, packed into words;
  *              the same operation as bitshuffle), w values at a time with
  *              the word-parallel [[repro.core.BitTranspose]].
  *   3. LNV1s — subtract the previous word of the transposed stream.
  *   4. ZE    — a zero-word bitmap followed by the non-zero words.
  *
  * The word size (32/64-bit) must match the data precision so LNV6s computes
  * meaningful residuals — the "input word size information is important"
  * insight from the paper.
  *
  * The stream is coded into the thread's [[repro.core.Scratch.coded]], sized
  * for the worst case: each w-value group writes at most one bitmap word and
  * w data words, and every chunk but the last is a whole number of groups.
  * ZE stores and loads each bitmap and data word with one 4- or 8-byte
  * access, and finds word i's bit as bit `i & (w - 1)` of bitmap word
  * `i >>> log2(w)`.
  */
final class Mpc extends Codec {
  override def name: String     = "MPC"
  override def platform: String = "GPU"

  private val Chunk = 1024

  override def compress(block: FpBlock): Compressed = {
    val w      = block.precision.bits
    val bytes  = block.precision.bytes
    val m      = Words.mask(w)
    val lw     = Integer.numberOfTrailingZeros(w)
    val vals   = block.bits
    val out    = Scratch.get.coded.atLeast(Math.toIntExact((w + 1L) * ((vals.length + w - 1) / w) * bytes))
    var pos    = 0
    val r1     = new Array[Long](Chunk)
    val t      = new Array[Long](Chunk)
    val bitmap = new Array[Long](Chunk / 32)
    var base = 0
    while (base < vals.length) {
      val len    = math.min(Chunk, vals.length - base)
      val groups = (len + w - 1) / w
      val nWords = w * groups
      // 1. LNV6s, zero-padded to whole w-value groups
      var i = 0
      while (i < len) {
        r1(i) = (if (i < 6) vals(base + i) else vals(base + i) - vals(base + i - 6)) & m
        i += 1
      }
      java.util.Arrays.fill(r1, len, nWords, 0L)
      // 2. BIT, into plane-major order
      toPlanes(r1, t, groups, w)
      // 3. LNV1s, in place from the back
      i = nWords - 1
      while (i > 0) { t(i) = (t(i) - t(i - 1)) & m; i -= 1 }
      // 4. ZE
      val bitmapWords = (nWords + w - 1) / w
      java.util.Arrays.fill(bitmap, 0, bitmapWords, 0L)
      i = 0
      while (i < nWords) { if (t(i) != 0) bitmap(i >>> lw) |= 1L << (i & (w - 1)); i += 1 }
      i = 0
      while (i < bitmapWords) { Words.writeWordLE(out, pos, bitmap(i), bytes); pos += bytes; i += 1 }
      i = 0
      while (i < nWords) { if (t(i) != 0) { Words.writeWordLE(out, pos, t(i), bytes); pos += bytes }; i += 1 }
      base += len
    }
    val stream = java.util.Arrays.copyOf(out, pos)
    // ~14 ops/byte: two delta passes + the bit transpose (DESIGN.md #2)
    val ops = block.sizeBytes * 14
    Compressed(stream, WorkProfile(block.sizeBytes * 3, stream.length, ops, divergent = false))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val w      = precision.bits
    val m      = Words.mask(w)
    val lw     = Integer.numberOfTrailingZeros(w)
    val bytes  = precision.bytes
    val n      = extent.product.toInt
    val vals   = new Array[Long](n)
    val r1     = new Array[Long](Chunk)
    val t      = new Array[Long](Chunk)
    val bitmap = new Array[Long](Chunk / 32)
    var pos    = 0
    var base   = 0
    while (base < n) {
      val len    = math.min(Chunk, n - base)
      val groups = (len + w - 1) / w
      val nWords = w * groups
      val bitmapWords = (nWords + w - 1) / w
      var i = 0
      while (i < bitmapWords) { bitmap(i) = Words.readWordLE(data, pos, bytes); pos += bytes; i += 1 }
      // ZE and LNV1s inverses in one forward pass
      var prev = 0L
      i = 0
      while (i < nWords) {
        if (((bitmap(i >>> lw) >>> (i & (w - 1))) & 1L) != 0) {
          prev = (prev + Words.readWordLE(data, pos, bytes)) & m
          pos += bytes
        }
        t(i) = prev
        i += 1
      }
      fromPlanes(t, r1, groups, w)
      i = 0
      while (i < len) {
        vals(base + i) = if (i < 6) r1(i) else (r1(i) + vals(base + i - 6)) & m
        i += 1
      }
      base += len
    }
    val ops = n.toLong * bytes * 14
    Decompressed(FpBlock(precision, extent, vals),
                 WorkProfile(data.length + n.toLong * bytes, n.toLong * bytes, ops,
                             divergent = false))
  }

  /** Transpose `groups` w-value groups of `r1` in place and scatter them into
    * plane-major order: `t(p * groups + g)` holds bit plane w-1-p of group g.
    */
  private def toPlanes(r1: Array[Long], t: Array[Long], groups: Int, w: Int): Unit = {
    var g = 0
    while (g < groups) {
      val off = g * w
      BitTranspose.square(r1, off, w)
      var p = 0
      while (p < w) { t(p * groups + g) = r1(off + w - 1 - p); p += 1 }
      g += 1
    }
  }

  /** Inverse of [[toPlanes]]: gather each group's planes from `t` into `r1`
    * and transpose it back.
    */
  private def fromPlanes(t: Array[Long], r1: Array[Long], groups: Int, w: Int): Unit = {
    var g = 0
    while (g < groups) {
      val off = g * w
      var p = 0
      while (p < w) { r1(off + w - 1 - p) = t(p * groups + g); p += 1 }
      BitTranspose.square(r1, off, w)
      g += 1
    }
  }
}
