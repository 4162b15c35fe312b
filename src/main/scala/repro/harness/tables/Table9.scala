package repro.harness.tables

import org.apache.spark.sql.SparkSession
import repro.core.{CodecRegistry, FpBlock}
import repro.data.FcDatasets
import repro.harness.{CompressionBench, Measure}
import repro.stats.MannWhitney

/** Table 9 — does flattening multi-dimensional data to 1-D (the column-store
  * layout) change the compression ratio of the dimension-aware methods?
  * Harmonic-mean CR with and without dimension information plus the
  * Mann-Whitney U p-value (alpha = 0.05; the paper finds no significant
  * difference — "compression is 1-d friendly").
  */
object Table9 {

  final case class MethodResult(codec: String, mdHarmonic: Double, odHarmonic: Double,
                                pValue: Double)
  final case class Result(methods: Seq[MethodResult], text: String)

  val DimAwareMethods: Seq[String] = Seq("GFC", "MPC", "fpzip", "ndzip-C", "ndzip-G")

  def run(spark: SparkSession): Result = {
    val multiDim = FcDatasets.all.filter(_.ndims > 1)
    val blocks   = multiDim.map(s => s.block(spark, BenchConfig.targetValues))

    val results = DimAwareMethods.map { name =>
      val codec = CodecRegistry.byName(name)
      def cr(b: FpBlock) = Measure.roundtrip(codec, Seq(b), 1).cr
      val md = blocks.map(cr)
      val od = blocks.map(b => cr(b.as1d))
      MethodResult(name,
                   CompressionBench.harmonicMean(md),
                   CompressionBench.harmonicMean(od),
                   MannWhitney.test(md, od).pTwoSided)
    }

    val header = Seq("method", "harm-mean md", "harm-mean 1d", "p-value")
    val body = results.map { r =>
      val (pMd, pOd, pP) = PaperNumbers.table9(r.codec)
      Seq(r.codec,
          Render.vs(r.mdHarmonic, Some(pMd)),
          Render.vs(r.odHarmonic, Some(pOd)),
          Render.vs(r.pValue, Some(pP)))
    }
    val text =
      "Table 9: dimension information's influence on CRs -- measured(paper)\n" +
      Render.table(header, body)
    Result(results, text)
  }
}
