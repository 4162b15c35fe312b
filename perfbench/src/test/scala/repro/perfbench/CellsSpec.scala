package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Wraps a codec and flips one bit of every decoded block. */
final class Corrupting(inner: Codec) extends Codec {
  override def name: String = inner.name
  override def platform: String = inner.platform
  override def compress(block: FpBlock): Compressed = inner.compress(block)
  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val d = inner.decompress(data, precision, extent)
    val bits = d.block.bits.clone()
    bits(bits.length / 2) ^= 1L
    d.copy(block = d.block.copy(bits = bits))
  }
}

/** Throws on every decode. */
final class Throwing(inner: Codec) extends Codec {
  override def name: String = inner.name
  override def platform: String = inner.platform
  override def compress(block: FpBlock): Compressed = inner.compress(block)
  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed =
    throw new IllegalStateException("corrupt stream")
}

class CellsSpec extends AnyFunSuite {
  private val block = FpBlock.fromDoubles(Array.tabulate(4096)(i => math.sin(i * 0.01) * 100))
  private val gorilla = CodecRegistry.byName("Gorilla")

  private def pass(codecs: Seq[Codec]): PassRecord = {
    val cells = codecs.map(c => Cells.roundtrip(Names.metricSafe(c.name), c, Seq(block),
                                                new Tracer, countAlloc = true))
    PassRecord(traced = false, wallNs = 1000000L, cells, gcNs = 0L, spans = Nil)
  }

  test("a codec that decodes to other bits fails its cell and the pass goes on") {
    val p = pass(Seq(new Corrupting(gorilla), gorilla))
    assert(p.cells.map(_.ok) == Seq(false, true))
    assert(p.cells.head.error.exists(_.contains("other bits")))
    assert(p.cells(1).compNs > 0 && p.cells(1).decompNs > 0 && p.cells(1).cr > 0)
    val m = EndToEnd.metrics(Seq(p), setupS = 1.0, liveHeapMb = 1.0).map(x => x.name -> x.value).toMap
    assert(m("cr_hmean") == p.cells(1).cr, "failed cells are left out of the aggregates")
    assert(m("comp_mbps") > 0)
  }

  test("an exception fails its cell instead of aborting") {
    val p = pass(Seq(gorilla, new Throwing(gorilla), gorilla))
    assert(p.cells.count(!_.ok) == 1)
    assert(p.cells(1).error.exists(_.contains("corrupt stream")))
  }

  test("threaded codecs are pinned to the thread count asked for") {
    CodecRegistry.all.collect { case t: ThreadedCodec => t }.foreach { t =>
      Cells.pinned(t, 1) match {
        case p: ThreadedCodec => assert(p.threads == 1, t.name)
        case other => fail(s"${other.name} lost its thread setting")
      }
    }
  }

  test("throughput and pass time take each cell's best time over the passes") {
    def cell(series: String, ns: Long) = CellResult(series, series, 1000000L, 500000L,
                                                    ns, 2 * ns, 3 * ns, 0L, None)
    def rec(a: Long, b: Long) =
      PassRecord(traced = false, wallNs = 0L, Seq(cell("a", a), cell("b", b)), gcNs = 0L, spans = Nil)
    val m = EndToEnd.metrics(Seq(rec(1000000L, 4000000L), rec(3000000L, 2000000L)),
                             setupS = 1.0, liveHeapMb = 1.0).map(x => x.name -> x.value).toMap
    // best times: a 1 ms, b 2 ms, so 1000 and 500 MB/s
    assert(math.abs(m("comp_mbps") - math.sqrt(1000.0 * 500.0)) < 1e-6)
    assert(math.abs(m("decomp_mbps") - math.sqrt(500.0 * 250.0)) < 1e-6)
    assert(math.abs(m("pass_s") - 0.009) < 1e-12)
    assert(m("cr_hmean") == 2.0)
  }
}
