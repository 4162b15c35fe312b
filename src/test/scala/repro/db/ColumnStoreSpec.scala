package repro.db

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{CodecRegistry, Precision, WorkProfile}
import repro.data.FcDatasets
import repro.gpusim.GpuModel
import repro.harness.BlockedRunner

/** The simulated in-memory database: Parquet round-trip, decode correctness
  * against the source block, and — crucially — query results verified against
  * DuckDB via the oracle, for a CPU and a GPU codec.
  */
class ColumnStoreSpec extends SparkSpec {

  private def tmp(name: String) = s"target/test-colstore/$name"

  test("write/decode roundtrips the column through Parquet") {
    val spec  = FcDatasets.byName("tpcH-order")
    val block = spec.block(spark, 5000)
    val codec = CodecRegistry.byName("Gorilla")
    val path  = tmp("gorilla-order")
    CompressedColumnStore.write(spark, path, block, codec, valuesPerChunk = 1024)
    val decoded = CompressedColumnStore.decode(spark, path, codec, spec.precision)
    val got     = decoded.collect().map(_.getDouble(0))
    assert(got.sameElements(block.toDoubles))
  }

  test("readDecodeQuery reports timings and counts") {
    val spec  = FcDatasets.byName("tpcDS-web")
    val block = spec.block(spark, 4000)
    val codec = CodecRegistry.byName("shf+zstd")
    val path  = tmp("zstd-dsweb")
    CompressedColumnStore.write(spark, path, block, codec)
    val t = CompressedColumnStore.readDecodeQuery(spark, path, spec.name, codec, spec.precision)
    assert(t.readMs > 0 && t.decodeMs > 0 && t.queryMs > 0)
    assert(t.counts.size == 10)
    assert(t.counts == t.counts.sorted, "counts over increasing thresholds are monotone")
    assert(t.counts.last == block.n.toLong, "last threshold covers every value")
  }

  test("a GPU codec's modelled decode copies back precision.bytes per value of a single-precision column") {
    val spec  = FcDatasets.byName("tpcDS-store")
    assert(spec.precision == Precision.Single)
    val block = spec.block(spark, 3000)
    val codec = CodecRegistry.byName("GFC")
    val path  = tmp("gfc-dsstore")
    CompressedColumnStore.write(spark, path, block, codec, valuesPerChunk = 1024)
    val pages    = BlockedRunner.split(block, 1024 * 4)
    val payloads = pages.map(page => codec.compress(page).bytes)
    val work     = pages.lazyZip(payloads).map((page, p) => codec.decompress(p, spec.precision, page.extent).work)
    val t    = CompressedColumnStore.readDecodeQuery(spark, path, spec.name, codec, spec.precision)
    val expected = GpuModel.endToEndSeconds(work.foldLeft(WorkProfile.zero)(_ + _),
                                            payloads.map(_.length.toLong).sum, block.n * 4L) * 1e3
    assert(t.decodeMs == expected, s"decodeMs ${t.decodeMs} != $expected")
  }

  for (codecName <- Seq("Chimp", "MPC")) {
    test(s"scan query over $codecName-decoded column matches DuckDB") {
      val spec  = FcDatasets.byName("tpcH-order")
      val block = spec.block(spark, 3000)
      val codec = CodecRegistry.byName(codecName)
      val path  = tmp(s"$codecName-oracle")
      CompressedColumnStore.write(spark, path, block, codec, valuesPerChunk = 512)
      val df = CompressedColumnStore.decode(spark, path, codec, spec.precision)

      val thr = CompressedColumnStore.histogramThresholds(block.toDoubles)(4)
      val q   = df.filter(col("value") <= thr)
        .agg(count(lit(1)) as "cnt", round(sum("value"), 2) as "total")
      Oracle.assertEquivalent(
        q,
        s"SELECT count(*) AS cnt, round(sum(CAST(value AS DOUBLE)), 2) AS total " +
          s"FROM vals WHERE CAST(value AS DOUBLE) <= $thr",
        "vals" -> df)
    }
  }

  test("full-scan aggregate over lineitem-derived column matches DuckDB") {
    val spec  = FcDatasets.byName("tpcH-lineitem")
    val block = spec.block(spark, 2000)
    val codec = CodecRegistry.byName("shf+LZ4")
    val path  = tmp("lz4-lineitem-oracle")
    CompressedColumnStore.write(spark, path, block, codec, valuesPerChunk = 777)
    val df = CompressedColumnStore.decode(spark, path, codec, spec.precision)
    val q = df.groupBy((col("value") > 100).as("big"))
      .agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(
      q,
      "SELECT CAST(value AS DOUBLE) > 100 AS big, count(*) AS cnt " +
        "FROM vals GROUP BY CAST(value AS DOUBLE) > 100",
      "vals" -> df)
  }

  test("histogram thresholds span the value range") {
    val vals = Array(0.0, 5.0, 10.0)
    val t = CompressedColumnStore.histogramThresholds(vals)
    assert(t.size == 10)
    assert(t.head == 1.0 && t.last == 10.0)
  }
}
