package repro.bench

import repro.SparkSpec
import repro.harness.tables.{PaperNumbers, Render, Table4}

/** Regenerates Table 4 (compression ratios) + the Figure 7b ranking and
  * checks the paper's qualitative claims hold on the synthetic corpus.
  */
class Table4Bench extends SparkSpec {

  private lazy val result = Table4.run(spark)

  test("Table 4 renders and persists") {
    println(result.text)
    Render.save("table4", result.text)
    assert(result.cr.size == 33 * 14)
  }

  test("every (dataset, codec) cell decompressed bit-exactly") {
    // Measure.roundtrip raises on a mismatch, so a complete grid is a lossless one
    assert(result.rows.size == 33 * 14)
  }

  test("Observation 1: most compression ratios are <= 2.0, median modest") {
    val crs    = result.rows.map(_.roundtrip.cr).sorted
    val median = crs(crs.size / 2)
    assert(median < 2.0, s"median CR $median")
    assert(crs.count(_ <= 2.0) > crs.size * 0.7)
  }

  test("Observation 1: DB is the hardest domain to compress") {
    val perDomain = Seq("HPC", "TS", "OBS", "DB").map { d =>
      d -> PaperNumbers.Methods.map(m => result.domainAvg((d, m))).sum / 14
    }.toMap
    assert(perDomain("DB") == perDomain.values.min,
           s"domain means: $perDomain")
  }

  test("astro-mhd (entropy ~1) is the most compressible dataset") {
    val perDataset = result.rows.groupBy(_.dataset).view
      .mapValues(rs => rs.map(_.roundtrip.cr).max).toMap
    assert(perDataset("astro-mhd") == perDataset.values.max)
  }

  test("Chimp's 128-value window beats Gorilla on average (Analysis of Obs. 2)") {
    assert(result.overallAvg("Chimp") > result.overallAvg("Gorilla"),
           s"Chimp=${result.overallAvg("Chimp")} Gorilla=${result.overallAvg("Gorilla")}")
  }

  test("dictionary/transform methods lead the Friedman ranking (Obs. 2)") {
    val top5 = result.friedman.ordered.take(5).map(_._1).toSet
    assert(top5.intersect(Set("shf+zstd", "shf+LZ4", "Chimp", "fpzip", "MPC", "SPDP")).size >= 3,
           s"top5 = $top5")
  }

  test("GFC ranks in the bottom third (its predictor is the least accurate)") {
    val order = result.friedman.ordered.map(_._1)
    assert(order.indexOf("GFC") >= order.size / 2, s"order=$order")
  }

  test("Friedman test rejects method equivalence, like the paper's") {
    assert(result.friedman.pValue < 0.05)
    // the paper quotes k=13 (CD 3.18); our grid ranks all 14 table columns,
    // so the CD is slightly wider
    assert(result.criticalDifference > 3.0 && result.criticalDifference < 3.6)
  }
}
