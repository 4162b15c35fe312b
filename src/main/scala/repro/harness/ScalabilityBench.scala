package repro.harness

import repro.core.{FpBlock, ThreadedCodec}

/** Thread-scalability sweep (Tables 7 and 8): compression/decompression
  * throughput of the parallel CPU codecs at 1..32 threads, each thread count
  * one [[Measure.roundtrip]] (so checked lossless) on the driver with an
  * explicit pool, because the variable under test *is* the pool width.
  */
object ScalabilityBench {

  final case class ScalePoint(codec: String, threads: Int, compMBps: Double, decompMBps: Double)

  val ThreadSweep: Seq[Int] = Seq(1, 2, 4, 8, 16, 24, 32)

  def sweep(codec: ThreadedCodec, block: FpBlock, iters: Int = 3,
            threadCounts: Seq[Int] = ThreadSweep): Seq[ScalePoint] =
    threadCounts.map { t =>
      val r = Measure.roundtrip(codec.withThreads(t), Seq(block), iters)
      ScalePoint(codec.name, t, r.ctGBps * 1e3, r.dtGBps * 1e3)
    }
}
