package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic TPC-H-style columns at a configurable scale factor: the four
  * numeric `lineitem` columns and `orders.o_totalprice`, the inputs of the
  * `tpcH-lineitem` and `tpcH-order` datasets.
  *
  * SF=1.0 has TPC-H SF1's row counts. Tests use SF<=0.01; benchmarks use
  * SF~=0.1. Each column draws from its own `rand(seed + k)`, so a column's
  * values do not depend on which other columns are generated.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame =
    spark.range(n(NLineitemPerSf, sf)).select(
      (rand(seed + 3) * 50 + 1).cast(DoubleType)       as "l_quantity",
      round(rand(seed + 4) * 90000 + 900, 2)           as "l_extendedprice",
      round(rand(seed + 5) * 0.10, 2)                  as "l_discount",
      round(rand(seed + 6) * 0.08, 2)                  as "l_tax",
    )

  def orders(spark: SparkSession, sf: Double = 0.01, seed: Long = 1): DataFrame =
    spark.range(1, n(NOrdersPerSf, sf) + 1).toDF("o_orderkey").select(
      col("o_orderkey"),
      round(rand(seed + 2) * 500000 + 1000, 2)                 as "o_totalprice",
    )
}
