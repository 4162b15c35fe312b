package repro.harness

import repro.core._

/** Block-size sweep support (Table 10): a dataset compressed as a sequence
  * of independent fixed-size blocks — the HDF5-chunk / database-page regime —
  * measured as one [[Measure.roundtrip]] over the blocks at each block size.
  *
  * The paper runs this for the eight algorithms "easily converted to work
  * with blocks" (pFPC, SPDP, shf+LZ4, shf+zstd, Gorilla, Chimp, nv::LZ4,
  * nv::bitcomp); dimension-bound methods (fpzip/ndzip/GFC/MPC hypercubes)
  * are omitted exactly as in the paper.
  */
object BlockedRunner {

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
}
