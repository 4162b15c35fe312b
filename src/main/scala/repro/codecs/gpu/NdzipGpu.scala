package repro.codecs.gpu

import repro.core._
import repro.codecs.cpu.NdzipCore

/** ndzip-GPU [Knorr, Thoman & Fahringer, SC'21] — the GPU parallelization of
  * ndzip. The pipeline (hypercube blocks, integer Lorenzo transform, bit
  * transposition, zero-word elimination) is identical to ndzip-CPU; the GPU
  * scheme distributes transform and residual coding over up to 768 threads
  * per block and compacts variable-length chunks with a parallel prefix sum.
  * Here the same bit-exact pipeline runs on the CPU on one thread, like every
  * other GPU codec's reference, and timing comes from the GPU cost model over
  * the reported work profile.
  */
final class NdzipGpu extends Codec {
  override def name: String     = "ndzip-G"
  override def platform: String = "GPU"

  override def compress(block: FpBlock): Compressed = {
    val c = NdzipCore.compress(block, threads = 1)
    // The GPU scheme writes encoded chunks to a scratch buffer and compacts
    // them after a prefix sum — account for the extra pass over the output.
    c.copy(work = c.work.copy(bytesWritten = c.work.bytesWritten * 2))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed =
    NdzipCore.decompress(data, precision, extent, threads = 1)
}
