package repro.bench

import repro.SparkSpec
import repro.harness.tables.{Render, Table6}

/** Regenerates Table 6 (end-to-end wall time) and checks Observation 5:
  * once PCIe copies are charged, GPU methods lose much of their advantage —
  * parallel CPU methods land in the same order of magnitude.
  */
class Table6Bench extends SparkSpec {

  private lazy val result = Table6.run(spark)

  test("Table 6 renders and persists") {
    println(result.text)
    Render.save("table6", result.text)
  }

  test("serial codecs dominate the end-to-end tail (Gorilla/Chimp slowest)") {
    val slowest3 = result.compMs.toSeq.sortBy(-_._2).take(3).map(_._1).toSet
    assert(slowest3.intersect(Set("Gorilla", "Chimp", "fpzip", "SPDP", "BUFF")).size >= 2,
           s"slowest: $slowest3")
  }

  test("Observation 5: PCIe copies collapse the GPU's kernel-time advantage") {
    // the paper's point: the >100x kernel gap shrinks dramatically once
    // host-to-device copies are charged. Compare the CPU/GPU gap kernel-time
    // vs end-to-end: e2e must close the gap by at least 5x.
    val rows       = result.rows
    def mean(f: repro.harness.MetricsRow => Double, codec: String) = {
      val xs = rows.filter(_.codec == codec).map(f); xs.sum / xs.size
    }
    val bestCpuKernel = Seq("shf+LZ4", "shf+zstd", "ndzip-C").map(mean(_.roundtrip.comp.kernel, _)).min
    val bestGpuKernel = Seq("GFC", "MPC", "ndzip-G").map(mean(_.roundtrip.comp.kernel, _)).min
    val bestCpuE2e    = Seq("shf+LZ4", "shf+zstd", "ndzip-C").map(mean(_.roundtrip.comp.endToEnd, _)).min
    val bestGpuE2e    = Seq("GFC", "MPC", "ndzip-G").map(mean(_.roundtrip.comp.endToEnd, _)).min
    val kernelGap = bestCpuKernel / bestGpuKernel
    val e2eGap    = bestCpuE2e / bestGpuE2e
    assert(e2eGap < kernelGap / 5, s"kernelGap=$kernelGap e2eGap=$e2eGap")
  }

  test("GPU e2e times exceed their pure kernel times materially") {
    val t5 = Table6.run(spark) // same cached grid
    // GFC kernel at our sizes is tens of microseconds; e2e must be dominated
    // by PCIe: at 1 MB-scale inputs that is ~100 microseconds or more.
    assert(t5.compMs("GFC") > 0.05, s"GFC e2e ${t5.compMs("GFC")} ms")
  }
}
