package repro.harness.tables

import org.apache.spark.sql.SparkSession
import repro.data.FcDatasets
import repro.harness.{CompressionBench, MetricsRow}
import repro.stats.{Friedman, Nemenyi}

/** Table 4 — compression ratios per (dataset, method), domain harmonic means,
  * overall harmonic mean — plus the Friedman/Nemenyi ranking of Figure 7b.
  */
object Table4 {

  final case class Result(rows: Seq[MetricsRow],
                          cr: Map[(String, String), Double],
                          domainAvg: Map[(String, String), Double],
                          overallAvg: Map[String, Double],
                          friedman: Friedman.Result,
                          criticalDifference: Double,
                          text: String)

  def run(spark: SparkSession): Result = {
    val rows    = GridCache.metrics(spark)
    val methods = PaperNumbers.Methods
    val cr      = rows.map(r => (r.dataset, r.codec) -> r.roundtrip.cr).toMap

    val domains = Seq("HPC", "TS", "OBS", "DB")
    val byDomain = rows.groupBy(_.domain)
    val domainAvg = (for {
      d <- domains; m <- methods
    } yield (d, m) -> CompressionBench.harmonicMean(
      byDomain(d).filter(_.codec == m).map(_.roundtrip.cr))).toMap
    val overallAvg = methods.map(m =>
      m -> CompressionBench.harmonicMean(rows.filter(_.codec == m).map(_.roundtrip.cr))).toMap

    // Friedman over the full (dataset x method) CR matrix
    val scores = FcDatasets.all.map(s => methods.map(m => m -> cr((s.name, m))).toMap)
    val fr     = Friedman.test(scores)
    val cd     = Nemenyi.criticalDifference(methods.size, FcDatasets.all.size)

    val header = "dataset" +: methods
    val body = FcDatasets.all.map { s =>
      val paper = PaperNumbers.table4(s.name)
      s.name +: methods.zipWithIndex.map { case (m, i) =>
        Render.vs(cr((s.name, m)), paper(i))
      }
    }
    val avgRows = domains.map { d =>
      s"$d-avg" +: methods.zipWithIndex.map { case (m, i) =>
        Render.vs(domainAvg((d, m)), Some(PaperNumbers.table4DomainAvg(d)(i)))
      }
    } :+ ("Overall-avg" +: methods.zipWithIndex.map { case (m, i) =>
      Render.vs(overallAvg(m), Some(PaperNumbers.table4OverallAvg(i)))
    })

    val ranksTxt = fr.ordered
      .map { case (m, r) => f"$m%-10s ${r}%.2f" }
      .mkString("\n")
    val text =
      s"""Table 4: compression ratios -- measured(paper)
         |${Render.table(header, body ++ avgRows)}
         |
         |Friedman test (k=${fr.k}, N=${fr.n}): chi2=${Render.fmt(fr.chiSq)} """.stripMargin +
      f"F=${fr.imanDavenportF}%.2f p=${fr.pValue}%.2e\n" +
      f"Nemenyi critical difference (alpha=0.05): $cd%.3f\n" +
      s"Average ranks (higher = better CR):\n$ranksTxt"

    Result(rows, cr, domainAvg, overallAvg, fr, cd, text)
  }
}
