package repro.harness

import repro.SparkSpec
import repro.codecs.TestInputs
import repro.core.CodecRegistry
import repro.codecs.cpu.{Gorilla, NdzipCpu, Pfpc}
import repro.data.FcDatasets

class HarnessSpec extends SparkSpec {

  test("measure() returns sane metrics on a CPU codec") {
    val row = CompressionBench.measure(new Gorilla, TestInputs.smooth1dD(5000), "x", "HPC")
    val m   = row.roundtrip
    assert(m.origBytes == 5000L * 8)
    assert(m.compBytes > 0 && m.comp.kernel > 0 && m.decomp.kernel > 0)
    assert(m.cr > 0.5 && m.cr < 100)
    assert(row.platform == "CPU")
    assert(m.comp.endToEnd == m.comp.kernel, "CPU e2e == kernel time")
  }

  test("measure() uses the GPU model for GPU codecs") {
    // large enough that kernel-launch overhead does not dominate the model
    val row = CompressionBench.measure(CodecRegistry.byName("GFC"),
                                       TestInputs.smooth1dD(1 << 20), "x", "HPC", iters = 1)
    val m   = row.roundtrip
    assert(row.platform == "GPU")
    assert(m.comp.endToEnd > m.comp.kernel, "GPU e2e must include PCIe copies")
    // modeled kernel throughput must be in the >10 GB/s modeled GPU regime
    assert(m.ctGBps > 10, s"modeled GPU CT = ${m.ctGBps}")
  }

  test("harmonic mean and arithmetic mean") {
    assert(math.abs(CompressionBench.harmonicMean(Seq(1.0, 2.0)) - 4.0 / 3) < 1e-9)
    assert(CompressionBench.arithmeticMean(Seq(1.0, 2.0)) == 1.5)
    assert(CompressionBench.harmonicMean(Nil).isNaN)
  }

  test("runGrid returns all 4 cells, each decompressed losslessly") {
    val specs  = Seq(FcDatasets.byName("citytemp"), FcDatasets.byName("tpcH-order"))
    val codecs = Seq(CodecRegistry.byName("Gorilla"), CodecRegistry.byName("MPC"))
    val rows   = CompressionBench.runGrid(spark, specs, codecs, targetValues = 3000, iters = 1)
    assert(rows.size == 4)
    assert(rows.map(r => (r.dataset, r.codec)).toSet ==
      Set(("citytemp", "Gorilla"), ("citytemp", "MPC"),
          ("tpcH-order", "Gorilla"), ("tpcH-order", "MPC")))
  }

  test("BlockedRunner.split yields 1-D sub-blocks covering the data") {
    val block = TestInputs.smooth1dD(10000)
    val parts = BlockedRunner.split(block, 4096)
    assert(parts.map(_.n).sum == block.n)
    assert(parts.forall(_.extent.size == 1))
    assert(parts.head.n == 512) // 4096 bytes / 8
  }

  test("BlockedRunner preserves losslessness across block sizes") {
    val block = TestInputs.quantizedD(20000, 2)
    for (bs <- BlockedRunner.PaperBlockSizes) {
      val r = Measure.roundtrip(new Pfpc(2), BlockedRunner.split(block, bs), iters = 1)
      assert(r.cr > 0.3, s"bs=$bs")
    }
  }

  test("larger blocks do not hurt pFPC's CR (Observation 8 direction)") {
    val block = FcDatasets.byName("msg-bt").block(spark, 40000)
    val small = Measure.roundtrip(new Pfpc(1), BlockedRunner.split(block, 4096), iters = 1)
    val large = Measure.roundtrip(new Pfpc(1), BlockedRunner.split(block, 8 * 1024 * 1024), iters = 1)
    assert(large.cr >= small.cr * 0.98, s"4K=${small.cr} 8M=${large.cr}")
  }

  test("ScalabilityBench sweep returns one point per thread count") {
    val block  = TestInputs.smooth1dD(50000)
    val points = ScalabilityBench.sweep(new NdzipCpu(), block, iters = 1,
                                        threadCounts = Seq(1, 2, 4))
    assert(points.map(_.threads) == Seq(1, 2, 4))
    assert(points.forall(p => p.compMBps > 0 && p.decompMBps > 0))
  }

  test("pFPC with threads is not pathologically slower than serial") {
    // This VM shows multi-second CPU-steal dips, so a strict speedup
    // assertion is flaky; the scaling *numbers* are Table 7's output. Here we
    // only guard against pathological serialization (threads fighting).
    val block  = TestInputs.smooth1dD(1 << 20)
    val points = ScalabilityBench.sweep(new Pfpc(), block, iters = 4,
                                        threadCounts = Seq(1, 8))
    val s = points(1).compMBps / points(0).compMBps
    assert(s > 0.6, s"8-thread throughput collapsed to ${s}x of serial")
  }

  test("jobs.Run rejects an unknown table and lists the known ones") {
    for (args <- Seq(Array("12"), Array("table4"), Array.empty[String], Array("4", "5"))) {
      val e = intercept[IllegalArgumentException](jobs.Run.main(args))
      assert(e.getMessage.contains("4, 5, 6, 7, 8, 9, 10, 11"), e.getMessage)
    }
  }
}
