package repro.harness

import repro.core._

/** Block-size sweep support (Table 10): compress a dataset as a sequence of
  * independent fixed-size blocks — the HDF5-chunk / database-page regime —
  * and report aggregate CR/CT/DT at each block size.
  *
  * The paper runs this for the eight algorithms "easily converted to work
  * with blocks" (pFPC, SPDP, shf+LZ4, shf+zstd, Gorilla, Chimp, nv::LZ4,
  * nv::bitcomp); dimension-bound methods (fpzip/ndzip/GFC/MPC hypercubes)
  * are omitted exactly as in the paper.
  */
object BlockedRunner {

  final case class BlockedResult(codec: String, blockBytes: Int,
                                 cr: Double, ctGBps: Double, dtGBps: Double,
                                 lossless: Boolean)

  val PaperBlockSizes: Seq[Int] = Seq(4 * 1024, 64 * 1024, 8 * 1024 * 1024)

  /** Split a block into sub-blocks of `blockBytes` (1-D extent — pages do not
    * preserve hypercube structure, matching the column-store reality).
    */
  def split(block: FpBlock, blockBytes: Int): Seq[FpBlock] = {
    val valsPerBlock = math.max(1, blockBytes / block.precision.bytes)
    block.bits.grouped(valsPerBlock).map { slice =>
      FpBlock(block.precision, Seq(slice.length.toLong), slice)
    }.toSeq
  }

  /** Aggregate CR/CT/DT of `codec` over the `blockBytes` parts of `block`;
    * each direction's time covers only the codec calls, timed by [[Measure.codec]].
    */
  def run(codec: Codec, block: FpBlock, blockBytes: Int, iters: Int = 2): BlockedResult = {
    val parts = split(block, blockBytes)
    def total(ws: Seq[WorkProfile]) = ws.foldLeft(WorkProfile.zero)(_ + _)
    val origBytes = block.sizeBytes

    val (comps, ct) = Measure.codec(codec, iters)(parts.map(codec.compress))(
      cs => (total(cs.map(_.work)), origBytes, cs.map(_.bytes.length.toLong).sum))
    val compBytes = comps.map(_.bytes.length.toLong).sum
    val (decs, dt) = Measure.codec(codec, iters)(
      comps.lazyZip(parts).map((c, p) => codec.decompress(c.bytes, p.precision, p.extent)))(
      ds => (total(ds.map(_.work)), compBytes, origBytes))

    BlockedResult(codec.name, blockBytes,
                  origBytes.toDouble / compBytes,
                  origBytes.toDouble / ct.kernel / 1e9,
                  origBytes.toDouble / dt.kernel / 1e9,
                  decs.lazyZip(parts).forall((d, p) => d.block.bits.sameElements(p.bits)))
  }
}
