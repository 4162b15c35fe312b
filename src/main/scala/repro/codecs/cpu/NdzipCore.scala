package repro.codecs.cpu

import repro.core._

/** The ndzip algorithm [Knorr, Thoman & Fahringer, DCC'21], shared between
  * the CPU implementation and the GPU parallelization scheme (the pipeline is
  * identical; only the execution platform differs):
  *
  *   1. Tile the multi-dimensional grid into hypercube blocks of 4096
  *      elements (4096 / 64x64 / 16x16x16 per the data's dimensionality),
  *      gathered with the grid's true strides. Values outside the aligned
  *      region (border slabs) are stored verbatim — as in the reference
  *      implementation.
  *   2. Apply the *integer Lorenzo transform* inside each block — a separable
  *      forward-difference pass along each dimension over the raw bit
  *      patterns (wrapping integer arithmetic, hence lossless).
  *   3. Bit-transpose chunks of 32 (single) / 64 (double) residuals in place
  *      ([[repro.core.BitTranspose]]).
  *   4. Drop zero words, keeping a 32-/64-bit bitmap header per chunk and the
  *      non-zero words verbatim.
  *
  * Blocks encode independently: thread-level parallelism on the CPU, one
  * work-group per block on the GPU.
  */
object NdzipCore {
  val BlockElems = 4096

  def sideFor(dims: Int): Int = dims match {
    case 1 => 4096
    case 2 => 64
    case _ => 16
  }

  // ------------------------------------------------------------- tiling ----

  /** Grid geometry: extents, tile counts per dim, and the aligned bounds. */
  private[cpu] final case class Geometry(ext: Array[Int], side: Int) {
    val dims: Int            = ext.length
    val tiles: Array[Int]    = ext.map(_ / side)
    val aligned: Array[Int]  = tiles.map(_ * side)
    val nTiles: Int          = tiles.product
    val strides: Array[Int]  = {
      val s = new Array[Int](dims)
      s(dims - 1) = 1
      var d = dims - 2
      while (d >= 0) { s(d) = s(d + 1) * ext(d + 1); d -= 1 }
      s
    }
  }

  private[cpu] def geometry(extent: Seq[Long]): Geometry = {
    val ext = (if (extent.length > 3) Seq(extent.product) else extent).map(_.toInt).toArray
    Geometry(ext, sideFor(ext.length))
  }

  /** Copy tile `t` between the flat grid and a 4096 buffer (gather/scatter). */
  private def moveTile(vals: Array[Long], buf: Array[Long], g: Geometry, t: Int,
                       gather: Boolean): Unit = {
    val s  = g.side
    val st = g.strides
    g.dims match {
      case 1 =>
        val base = t * s
        if (gather) System.arraycopy(vals, base, buf, 0, s)
        else System.arraycopy(buf, 0, vals, base, s)
      case 2 =>
        val ty = t / g.tiles(1); val tx = t % g.tiles(1)
        var y = 0
        while (y < s) {
          val src = (ty * s + y) * st(0) + tx * s
          if (gather) System.arraycopy(vals, src, buf, y * s, s)
          else System.arraycopy(buf, y * s, vals, src, s)
          y += 1
        }
      case _ =>
        val txy = g.tiles(1) * g.tiles(2)
        val tz  = t / txy
        val ty  = (t % txy) / g.tiles(2)
        val tx  = t % g.tiles(2)
        var z = 0
        while (z < s) {
          var y = 0
          while (y < s) {
            val src = (tz * s + z) * st(0) + (ty * s + y) * st(1) + tx * s
            if (gather) System.arraycopy(vals, src, buf, (z * s + y) * s, s)
            else System.arraycopy(buf, (z * s + y) * s, vals, src, s)
            y += 1
          }
          z += 1
        }
    }
  }

  /** Call `run(from, until)` for each run of flat indices outside the
    * tile-aligned region, in ascending order; with no tile, that is the
    * whole grid. Along each axis, the indices past its aligned bound are one
    * contiguous run; the ones before it recurse into the next axis.
    */
  private[cpu] def borderRuns(g: Geometry)(run: (Int, Int) => Unit): Unit = {
    def axis(d: Int, off: Int): Unit = {
      val st = g.strides(d)
      if (d < g.dims - 1) {
        var k = 0
        while (k < g.aligned(d)) { axis(d + 1, off + k * st); k += 1 }
      }
      if (g.aligned(d) < g.ext(d)) run(off + g.aligned(d) * st, off + g.ext(d) * st)
    }
    axis(0, 0)
  }

  // ---------------------------------------------------------- transform ----

  /** Separable forward difference along each axis of the s^dims cube. Along
    * an axis of stride `stride`, the cube splits into runs of `stride × side`
    * elements; in each, every element past the first `stride` takes the
    * difference to the one `stride` before it.
    */
  def forwardLorenzo(a: Array[Long], dims: Int, side: Int, w: Int): Unit = {
    val m = Words.mask(w)
    var d = 0
    while (d < dims) {
      val stride = pow(side, dims - 1 - d)
      val span   = stride * side
      var base   = 0
      while (base < a.length) {
        var i = base + span - 1
        while (i >= base + stride) { a(i) = (a(i) - a(i - stride)) & m; i -= 1 }
        base += span
      }
      d += 1
    }
  }

  def inverseLorenzo(a: Array[Long], dims: Int, side: Int, w: Int): Unit = {
    val m = Words.mask(w)
    var d = dims - 1
    while (d >= 0) {
      val stride = pow(side, dims - 1 - d)
      val span   = stride * side
      var base   = 0
      while (base < a.length) {
        var i = base + stride
        while (i < base + span) { a(i) = (a(i) + a(i - stride)) & m; i += 1 }
        base += span
      }
      d -= 1
    }
  }

  // ------------------------------------------------------------ encoding ---

  /** Chunked bit transpose + zero-word elimination over one tile buffer;
    * transposes `work` in place.
    */
  private def encodeResiduals(work: Array[Long], w: Int): Array[Byte] = {
    val out   = new ByteBuf(work.length * w / 8 / 2 + 64)
    val bytes = w / 8
    var base  = 0
    while (base < work.length) {
      BitTranspose.square(work, base, w)
      var head = 0L
      var i = 0
      while (i < w) { if (work(base + i) != 0) head |= 1L << i; i += 1 }
      out.writeWordLE(head, bytes)
      i = 0
      while (i < w) { if (work(base + i) != 0) out.writeWordLE(work(base + i), bytes); i += 1 }
      base += w
    }
    out.toArray
  }

  private def decodeResiduals(data: Array[Byte], off: Int, w: Int): (Array[Long], Int) = {
    val work  = new Array[Long](BlockElems)
    val bytes = w / 8
    var pos   = off
    var base  = 0
    while (base < BlockElems) {
      val head = ByteBuf.readWordLE(data, pos, bytes); pos += bytes
      var i = 0
      while (i < w) {
        if (((head >>> i) & 1L) != 0) { work(base + i) = ByteBuf.readWordLE(data, pos, bytes); pos += bytes }
        i += 1
      }
      BitTranspose.square(work, base, w)
      base += w
    }
    (work, pos - off)
  }

  // ------------------------------------------------------------ pipeline ---

  /** Compress one gathered 4096-element tile in place. Residuals are sign-rotated
    * (zigzag) after the Lorenzo transform: a small *negative* residual is
    * otherwise all-ones in its top bits under two's complement, which would
    * defeat the zero-word elimination after transposition.
    */
  private def compressTile(work: Array[Long], dims: Int, w: Int): Array[Byte] = {
    forwardLorenzo(work, dims, sideFor(dims), w)
    val m = Words.mask(w)
    var i = 0
    while (i < work.length) {
      val rs = if (w == 64) work(i) else (work(i) << (64 - w)) >> (64 - w)
      work(i) = ((rs << 1) ^ (rs >> 63)) & m
      i += 1
    }
    encodeResiduals(work, w)
  }

  def decompressBlock(data: Array[Byte], off: Int, dims: Int, w: Int): (Array[Long], Int) = {
    val (work, consumed) = decodeResiduals(data, off, w)
    val m = Words.mask(w)
    var i = 0
    while (i < work.length) {
      val z = work(i)
      work(i) = ((z >>> 1) ^ -(z & 1)) & m
      i += 1
    }
    inverseLorenzo(work, dims, sideFor(dims), w)
    (work, consumed)
  }

  /** Full-stream compression over the true extent: aligned hypercube tiles
    * through the pipeline, the border region verbatim.
    * Layout: a [[repro.core.Frame]] of the tiles, then the border values raw.
    */
  def compress(block: FpBlock, threads: Int): Compressed = {
    val w    = block.precision.bits
    val g    = geometry(block.extent)
    val vals = block.bits
    val parts = Parallel.map((0 until g.nTiles).toIndexedSeq, threads) { t =>
      val buf = new Array[Long](BlockElems)
      moveTile(vals, buf, g, t, gather = true)
      compressTile(buf, g.dims, w)
    }
    val border = (vals.length - g.nTiles * BlockElems) * (w / 8)
    val bytes  = Frame.write(parts, border)
    var pos    = bytes.length - border
    borderRuns(g) { (from, until) =>
      var i = from
      while (i < until) { ByteBuf.writeWordLE(bytes, pos, vals(i), w / 8); pos += w / 8; i += 1 }
    }
    // calibrated vs the SC'21 implementation's instruction mix (DESIGN.md #2)
    val ops = block.sizeBytes * 7
    Compressed(bytes, WorkProfile(block.sizeBytes * 2, bytes.length, ops, divergent = false))
  }

  def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long], threads: Int): Decompressed = {
    val w = precision.bits
    val g = geometry(extent)
    val n = extent.product.toInt
    val nT      = g.nTiles
    val offsets = Frame.read(data, nT, nT)
    val border  = (n - nT.toLong * BlockElems) * (w / 8)
    require(data.length - offsets(nT) == border,
            s"${data.length - offsets(nT)} bytes after the tiles, expected a $border-byte border")
    val vals    = new Array[Long](n)
    Parallel.map(0 until nT, threads) { t =>
      val (buf, _) = decompressBlock(data, offsets(t), g.dims, w)
      moveTile(vals, buf, g, t, gather = false)
    }
    var pos = offsets(nT)
    borderRuns(g) { (from, until) =>
      var i = from
      var p = pos
      while (i < until) { vals(i) = ByteBuf.readWordLE(data, p, w / 8); p += w / 8; i += 1 }
      pos = p
    }
    val ops = n.toLong * precision.bytes * 7
    Decompressed(FpBlock(precision, extent, vals),
                 WorkProfile(data.length + n.toLong * precision.bytes,
                             n.toLong * precision.bytes, ops, divergent = false))
  }

  // ------------------------------------------------------------- util ------

  private def pow(b: Int, e: Int): Int = { var r = 1; var i = 0; while (i < e) { r *= b; i += 1 }; r }
}

/** ndzip-CPU — the SIMD+threads implementation; here, thread parallelism
  * over hypercube tiles.
  */
final class NdzipCpu(val threads: Int = Runtime.getRuntime.availableProcessors())
    extends ThreadedCodec {
  override def name: String     = "ndzip-C"
  override def platform: String = "CPU"
  override def withThreads(t: Int): Codec = new NdzipCpu(t)

  override def compress(block: FpBlock): Compressed = NdzipCore.compress(block, threads)

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed =
    NdzipCore.decompress(data, precision, extent, threads)
}
