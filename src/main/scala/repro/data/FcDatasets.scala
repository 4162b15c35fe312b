package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core.{FpBlock, Precision}

/** One of the paper's 33 datasets (Table 3), reproduced synthetically.
  *
  * @param name      the paper's dataset name
  * @param domain    HPC / TS / OBS / DB
  * @param precision S or D, as in Table 3
  * @param ndims     dimensionality of the extent (1, 2 or 3)
  * @param cols      for 2-D tabular datasets: the paper's column count; 0
  *                  means square (images) or derived (3-D cubes)
  * @param gen       Catalyst expression producing the value at flat index
  *                  `idx` given the concrete extent
  */
final case class DatasetSpec(name: String, domain: String, precision: Precision,
                             ndims: Int, cols: Int,
                             gen: (SparkSession, Seq[Long]) => DataFrame) {

  /** Concrete extent holding ~`targetValues` values under this spec's shape.
    * Image/cube sides snap to the hypercube tile sides (64 / 16) when large
    * enough — the paper's grids are likewise far larger than one tile.
    */
  def extentFor(targetValues: Int): Seq[Long] = ndims match {
    case 1 => Seq(targetValues.toLong)
    case 2 if cols > 0 =>
      val rows = math.max(1, targetValues / cols)
      Seq(rows.toLong, cols.toLong)
    case 2 =>
      val raw  = math.max(2, math.sqrt(targetValues.toDouble).toInt)
      val side = if (raw >= 64) raw / 64 * 64 else raw
      Seq(side.toLong, side.toLong)
    case _ =>
      val raw  = math.max(2, math.cbrt(targetValues.toDouble).toInt)
      val side = if (raw >= 16) raw / 16 * 16 else raw
      Seq(side.toLong, side.toLong, side.toLong)
  }

  /** DataFrame of (idx, value) for the given extent, idx in scan order. */
  def dataFrame(spark: SparkSession, extent: Seq[Long]): DataFrame = gen(spark, extent)

  /** Collect the dataset into one FpBlock (drivers-side; corpus is small). */
  def block(spark: SparkSession, targetValues: Int): FpBlock = {
    val extent = extentFor(targetValues)
    val rows   = dataFrame(spark, extent).orderBy("idx").select("value").collect()
    val vals   = rows.map(_.getDouble(0))
    precision match {
      case Precision.Double => FpBlock.fromDoubles(vals, extent)
      case Precision.Single =>
        val floats = new Array[Float](vals.length) // a loop: Array.map boxes each value
        var i      = 0
        while (i < vals.length) { floats(i) = vals(i).toFloat; i += 1 }
        FpBlock.fromFloats(floats, extent)
    }
  }
}

/** The FCBench corpus (Table 3): 33 datasets across four domains.
  *
  * Substitution note (DESIGN.md #1): the real corpus is not redistributable
  * or downloadable offline, so each dataset is generated with the same
  * domain, precision, and dimensionality, and a value process chosen to
  * match the original's compressibility character — e.g. `astro-mhd`
  * (entropy 0.97, CRs 8..22 in Table 4) is a mostly-constant field with a
  * localized smooth structure, while `jane-street` (entropy 26) is
  * full-precision noise. DB datasets reuse the provided TPC-H-lite
  * generators in [[repro.SynthData]].
  */
object FcDatasets {
  import Precision.{Double => D, Single => S}

  /** Deterministic per-dataset seed so datasets differ but runs repeat. */
  private def seedOf(name: String): Long = name.hashCode.toLong & 0x7fffffff

  /** (idx, value) frame from a value expression over flat index + coords. */
  private def fromExpr(spark: SparkSession, extent: Seq[Long])
                      (value: (Column, Seq[Column]) => Column): DataFrame = {
    val n  = extent.product
    val df = spark.range(n).toDF("idx")
    // coords: fastest-varying dimension last (scan order)
    val strides = extent.scanRight(1L)(_ * _).tail // stride of each dim
    val coords  = extent.indices.map(d => (col("idx") / strides(d)).cast("long") % extent(d))
    df.select(col("idx"), value(col("idx"), coords.map(_.cast("double"))).cast("double") as "value")
  }

  /** Quantize to `p` decimal digits (exactly representable after cast). */
  private def dec(c: Column, p: Int): Column = round(c, p)

  // ---------------------------------------------------------------- HPC ----

  private def smooth1d(name: String, jitter: Double) =
    (spark: SparkSession, extent: Seq[Long]) =>
      fromExpr(spark, extent) { (i, _) =>
        sin(i * 0.002) * 50 + cos(i * 0.017) * 7 + randn(seedOf(name)) * jitter
      }

  private def walk1d(name: String, jump: Double) =
    (spark: SparkSession, extent: Seq[Long]) =>
      fromExpr(spark, extent) { (i, _) =>
        // jagged control-like signal: slow drift + frequent jumps
        sin(i * 0.0003) * 100 + (rand(seedOf(name)) - 0.5) * jump
      }

  private def field3d(name: String, freq: Double, noise: Double) =
    (spark: SparkSession, extent: Seq[Long]) =>
      fromExpr(spark, extent) { (_, c) =>
        val Seq(z, y, x) = c
        sin(z * freq) * cos(y * freq * 1.3) + sin(x * freq * 0.7) * 0.5 +
          randn(seedOf(name)) * noise
      }

  private def sparseField3d(name: String) =
    (spark: SparkSession, extent: Seq[Long]) =>
      fromExpr(spark, extent) { (_, c) =>
        val Seq(z, y, x) = c
        val s = extent.head.toDouble
        // >90% of the volume is exactly zero (the astro-mhd character)
        when(z < s * 0.9, lit(0.0))
          .otherwise(sin(y * 0.21) * cos(x * 0.17) * 1e-3)
      }

  // ---------------------------------------------------------------- TS -----

  private def sensor(name: String, decimals: Int, base: Double, amp: Double,
                     noise: Double) =
    (spark: SparkSession, extent: Seq[Long]) =>
      fromExpr(spark, extent) { (i, c) =>
        val ch = if (c.length > 1) c.last else lit(0.0)
        dec(lit(base) + ch * 3 + sin(i * 0.001 + ch) * amp +
              randn(seedOf(name)) * noise, decimals)
      }

  private def noiseTable(name: String) =
    (spark: SparkSession, extent: Seq[Long]) =>
      fromExpr(spark, extent) { (_, _) =>
        randn(seedOf(name)) // anonymized full-precision features
      }

  private def steppedPrices(name: String, decimals: Int, holdLen: Int) =
    (spark: SparkSession, extent: Seq[Long]) =>
      fromExpr(spark, extent) { (i, c) =>
        // per-channel prices that hold for `holdLen` rows then jump by a
        // random number of ticks: runs of equal values within a channel plus
        // a noise floor — dictionary-friendly without collapsing to pure RLE
        val ch   = if (c.length > 1) c.last else lit(0.0)
        val cols = if (extent.length > 1) extent.last.toInt else 1
        val row  = floor(i / cols)
        val step = floor(row / holdLen)
        dec(lit(1.2) + ch * 0.111 +
              pmod(step * 17 + ch, lit(50)) * 0.003 +
              floor(rand(seedOf(name)) * 4) * 0.001, decimals)
      }

  // ---------------------------------------------------------------- OBS ----

  private def image2d(name: String, structure: Double, noise: Double) =
    (spark: SparkSession, extent: Seq[Long]) =>
      fromExpr(spark, extent) { (_, c) =>
        val Seq(y, x) = c
        val h = extent.head.toDouble; val w = extent(1).toDouble
        val bg = lit(100.0) + y * (20.0 / h) + x * (10.0 / w) // sky gradient
        val src = exp(-(pow(y - h * 0.3, 2) + pow(x - w * 0.4, 2)) / (h * w * 0.002)) * 500 +
                  exp(-(pow(y - h * 0.7, 2) + pow(x - w * 0.6, 2)) / (h * w * 0.001)) * 300
        bg + src * structure + randn(seedOf(name)) * noise
      }

  private def hdrImage(name: String) =
    (spark: SparkSession, extent: Seq[Long]) =>
      fromExpr(spark, extent) { (_, c) =>
        val Seq(y, x) = c
        // HDR panoramas: large smooth areas, low entropy; per-name frequency
        // so the two HDR datasets are distinct scenes
        val f = 0.008 + (seedOf(name) % 7) * 0.0011
        dec(sin(y * 0.01) * cos(x * f) * 2 + lit(3.0), 3)
      }

  private def cube3d(name: String, noise: Double) =
    (spark: SparkSession, extent: Seq[Long]) =>
      fromExpr(spark, extent) { (_, c) =>
        val Seq(z, y, x) = c
        sin(z * 0.4) * 10 + cos(y * 0.15) * sin(x * 0.12) * 5 +
          randn(seedOf(name)) * noise
      }

  // ---------------------------------------------------------------- DB -----

  /** o_totalprice from the provided TPC-H-lite generator, in row order. */
  private val tpcHOrder =
    (spark: SparkSession, extent: Seq[Long]) => {
      val n  = extent.product
      val sf = n.toDouble / 1_500_000.0 // SynthData.orders rows per SF
      SynthData.orders(spark, sf)
        .select((col("o_orderkey") - 1) as "idx", col("o_totalprice") as "value")
        .where(col("idx") < n)
    }

  /** The four numeric lineitem columns, interleaved row-major (n x 4). */
  private val tpcHLineitem =
    (spark: SparkSession, extent: Seq[Long]) => {
      val rows = extent.head
      val sf   = rows.toDouble / 6_000_000.0
      val li = SynthData.lineitem(spark, sf)
        .limit(rows.toInt)
        .withColumn("rid", monotonically_increasing_id())
      val packed = li.select(col("rid"),
        posexplode(array(col("l_quantity"), col("l_extendedprice"),
                         col("l_discount"), col("l_tax"))))
      packed
        .withColumn("row", row_number().over(
          org.apache.spark.sql.expressions.Window.orderBy("rid", "pos")) - 1)
        .select(col("row") as "idx", col("col").cast("double") as "value")
    }

  private def tpcTable(name: String, decimals: Int) =
    (spark: SparkSession, extent: Seq[Long]) =>
      fromExpr(spark, extent) { (_, c) =>
        val ch = c.last
        // mixed fact-table columns: quantities (small ints), prices (2 dec),
        // discounts — no structural correlation between adjacent values
        when(pmod(ch, lit(3)) === 0, floor(rand(seedOf(name)) * 100))
          .when(pmod(ch, lit(3)) === 1, dec(rand(seedOf(name) + 1) * 10000, decimals))
          .otherwise(dec(rand(seedOf(name) + 2), decimals))
      }

  // ------------------------------------------------------------- corpus ----

  val all: Seq[DatasetSpec] = Seq(
    // HPC (Table 3 rows 1-10)
    DatasetSpec("msg-bt",        "HPC", D, 1, 0, smooth1d("msg-bt", 1e-4)),
    DatasetSpec("num-brain",     "HPC", D, 1, 0, smooth1d("num-brain", 1e-3)),
    DatasetSpec("num-control",   "HPC", D, 1, 0, walk1d("num-control", 40)),
    DatasetSpec("rsim",          "HPC", S, 2, 0, (sp, e) => image2d("rsim", 0.5, 0.05)(sp, e)),
    DatasetSpec("astro-mhd",     "HPC", D, 3, 0, sparseField3d("astro-mhd")),
    DatasetSpec("astro-pt",      "HPC", D, 3, 0, field3d("astro-pt", 0.3, 1e-3)),
    DatasetSpec("miranda3d",     "HPC", S, 3, 0, field3d("miranda3d", 0.12, 1e-3)),
    DatasetSpec("turbulence",    "HPC", S, 3, 0, field3d("turbulence", 0.9, 0.05)),
    DatasetSpec("wave",          "HPC", S, 3, 0, field3d("wave", 0.08, 1e-4)),
    DatasetSpec("hurricane",     "HPC", S, 3, 0, field3d("hurricane", 0.5, 0.02)),
    // TS (rows 11-18)
    DatasetSpec("citytemp",      "TS",  S, 1, 0,  sensor("citytemp", 1, 20, 8, 0.2)),
    DatasetSpec("ts-gas",        "TS",  S, 1, 0,  sensor("ts-gas", 2, 50, 25, 0.5)),
    DatasetSpec("phone-gyro",    "TS",  D, 2, 3,  sensor("phone-gyro", 4, 0, 2, 0.01)),
    DatasetSpec("wesad-chest",   "TS",  D, 2, 8,  sensor("wesad-chest", 3, 1, 5, 0.02)),
    DatasetSpec("jane-street",   "TS",  D, 2, 136, noiseTable("jane-street")),
    DatasetSpec("nyc-taxi",      "TS",  D, 2, 7,  sensor("nyc-taxi", 2, 15, 10, 1)),
    DatasetSpec("gas-price",     "TS",  D, 2, 3,  steppedPrices("gas-price", 3, 24)),
    DatasetSpec("solar-wind",    "TS",  S, 2, 14, sensor("solar-wind", 2, 300, 100, 2)),
    // OBS (rows 19-26)
    DatasetSpec("acs-wht",       "OBS", S, 2, 0, image2d("acs-wht", 1.0, 0.3)),
    DatasetSpec("hdr-night",     "OBS", S, 2, 0, hdrImage("hdr-night")),
    DatasetSpec("hdr-palermo",   "OBS", S, 2, 0, hdrImage("hdr-palermo")),
    DatasetSpec("hst-wfc3-uvis", "OBS", S, 2, 0, image2d("hst-wfc3-uvis", 1.0, 0.1)),
    DatasetSpec("hst-wfc3-ir",   "OBS", S, 2, 0, image2d("hst-wfc3-ir", 1.0, 0.08)),
    DatasetSpec("spitzer-irac",  "OBS", S, 2, 0, image2d("spitzer-irac", 0.8, 0.25)),
    DatasetSpec("g24-78-usb",    "OBS", S, 3, 0, cube3d("g24-78-usb", 1.5)),
    DatasetSpec("jws-mirimage",  "OBS", S, 3, 0, cube3d("jws-mirimage", 0.6)),
    // DB (rows 27-33)
    DatasetSpec("tpcH-order",    "DB",  D, 1, 0,  tpcHOrder),
    DatasetSpec("tpcxBB-store",  "DB",  D, 2, 12, tpcTable("tpcxBB-store", 2)),
    DatasetSpec("tpcxBB-web",    "DB",  D, 2, 15, tpcTable("tpcxBB-web", 2)),
    DatasetSpec("tpcH-lineitem", "DB",  S, 2, 4,  tpcHLineitem),
    DatasetSpec("tpcDS-catalog", "DB",  S, 2, 15, tpcTable("tpcDS-catalog", 2)),
    DatasetSpec("tpcDS-store",   "DB",  S, 2, 12, tpcTable("tpcDS-store", 2)),
    DatasetSpec("tpcDS-web",     "DB",  S, 2, 15, tpcTable("tpcDS-web", 2)),
  )

  def byName(name: String): DatasetSpec =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown dataset: $name"))

  /** The 7 TPC datasets used by Table 11. */
  def tpc: Seq[DatasetSpec] = all.filter(_.domain == "DB")
}
