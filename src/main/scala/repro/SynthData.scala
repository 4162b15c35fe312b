package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic TPC-H-style columns: the four numeric `lineitem` columns and
  * `orders.o_totalprice`, the inputs of the `tpcH-lineitem` and `tpcH-order`
  * datasets. Each takes its row count; TPC-H SF1 has 6 000 000 lineitem and
  * 1 500 000 orders rows.
  *
  * Each column draws from its own `rand(k)`, so a column's values do not
  * depend on which other columns are generated.
  */
object SynthData {

  /** `rows` lineitem rows, with the range's row id as `id`. */
  def lineitem(spark: SparkSession, rows: Long): DataFrame =
    spark.range(rows).select(
      col("id"),
      (rand(3) * 50 + 1).cast(DoubleType)       as "l_quantity",
      round(rand(4) * 90000 + 900, 2)           as "l_extendedprice",
      round(rand(5) * 0.10, 2)                  as "l_discount",
      round(rand(6) * 0.08, 2)                  as "l_tax",
    )

  /** `rows` orders rows, keyed 1..rows. */
  def orders(spark: SparkSession, rows: Long): DataFrame =
    spark.range(1, rows + 1).toDF("o_orderkey").select(
      col("o_orderkey"),
      round(rand(3) * 500000 + 1000, 2)                 as "o_totalprice",
    )
}
