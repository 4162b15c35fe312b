package repro.perfbench

import java.io.File
import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.FcDatasets

class DbSpec extends AnyFunSuite {
  test("scan counts that differ from the input's fail the column-store cell") {
    val dir = Files.createTempDirectory("perfbench-db").toFile
    val spark = Main.session(1, dir)
    try {
      val block = FcDatasets.byName("tpcH-order").block(spark, 2000)
      val good = CodecRegistry.byName("Gorilla")
      val ok = Db.cell(spark, new File(dir, "good"), "tpcH-order", block, good, new Tracer)
      assert(ok.error.isEmpty, ok.error)
      assert(ok.query.exists(_.counts == Db.expectedCounts(block)))
      assert(ok.writeNs > 0 && ok.parquetBytes > 0)

      // zero the second half of every decoded chunk: the scans see other values
      val zeroing = new Codec {
        def name = good.name
        def platform = good.platform
        def compress(b: FpBlock): Compressed = good.compress(b)
        def decompress(data: Array[Byte], p: Precision, extent: Seq[Long]): Decompressed = {
          val d = good.decompress(data, p, extent)
          val v = d.block.toDoubles
          d.copy(block = FpBlock.fromDoubles(v.indices.map(i => if (i < v.length / 2) v(i) else 0.0).toArray))
        }
      }
      val bad = Db.cell(spark, new File(dir, "bad"), "tpcH-order", block, zeroing, new Tracer)
      assert(bad.error.exists(_.contains("scan counts")))
    } finally spark.stop()
  }
}
