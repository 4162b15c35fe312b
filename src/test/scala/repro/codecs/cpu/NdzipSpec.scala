package repro.codecs.cpu

import repro.{PropSupport, SparkSpec}
import repro.codecs.gpu.NdzipGpu
import repro.core.{FpBlock, Precision, Words}
import org.scalacheck.{Gen, Prop}

/** ndzip's span-block Lorenzo loops and border runs against the
  * per-element-division forms kept in [[DivisionNdzip]].
  */
class NdzipSpec extends SparkSpec with PropSupport {

  test("property: the Lorenzo transforms equal the division-based oracle for 1-3 dims and 32/64 bits") {
    val gen = for {
      dims <- Gen.choose(1, 3)
      w    <- Gen.oneOf(32, 64)
      seed <- Gen.choose(Long.MinValue, Long.MaxValue)
    } yield (dims, w, seed)
    checkProp(Prop.forAllNoShrink(gen) { case (dims, w, seed) =>
      val rng  = new scala.util.Random(seed)
      val m    = Words.mask(w)
      val side = NdzipCore.sideFor(dims)
      val in   = Array.fill(NdzipCore.BlockElems)(rng.nextLong() & m)
      val fwd  = in.clone(); NdzipCore.forwardLorenzo(fwd, dims, side, w)
      val ofwd = in.clone(); DivisionNdzip.forwardLorenzo(ofwd, dims, side, w)
      val inv  = in.clone(); NdzipCore.inverseLorenzo(inv, dims, side, w)
      val oinv = in.clone(); DivisionNdzip.inverseLorenzo(oinv, dims, side, w)
      Prop.propBoolean(java.util.Arrays.equals(fwd, ofwd) && java.util.Arrays.equals(inv, oinv)) :|
        s"dims=$dims w=$w seed=$seed"
    }, minTests = 60)
  }

  /** Extents with and without tiles, with empty and full borders. */
  private val extents: Gen[Seq[Long]] = Gen.oneOf(
    Gen.choose(0, 20000).map(n => Seq(n.toLong)),
    Gen.zip(Gen.choose(1, 200), Gen.choose(1, 200)).map { case (y, x) => Seq(y.toLong, x.toLong) },
    Gen.zip(Gen.choose(1, 40), Gen.choose(1, 40), Gen.choose(1, 40))
      .map { case (z, y, x) => Seq(z.toLong, y.toLong, x.toLong) },
    Gen.oneOf(Seq(64L, 64L), Seq(128L, 64L), Seq(16L, 16L, 16L), Seq(32L, 16L, 48L), Seq(2L, 2L, 2L, 2L)))

  test("property: the border runs visit the old !inAligned indices in ascending order") {
    checkProp(Prop.forAllNoShrink(extents) { extent =>
      val g       = NdzipCore.geometry(extent)
      val visited = Seq.newBuilder[Int]
      NdzipCore.borderRuns(g)((from, until) => visited ++= (from until until))
      val got = visited.result()
      Prop.propBoolean(got == DivisionNdzip.border(g)) :| s"extent=$extent: ${got.length} indices"
    }, minTests = 150)
  }

  for (extent <- Seq(Seq(5000L), Seq(4097L), Seq(100L), Seq(65L, 200L), Seq(17L, 33L, 20L),
                     Seq(3L, 40L, 40L), Seq(2L, 2L, 2L, 2L));
       precision <- Seq(Precision.Single, Precision.Double))
    test(s"ndzip-C and ndzip-G roundtrip extent ${extent.mkString("x")} (${precision.tag})") {
      val rng  = new scala.util.Random(extent.product)
      val mask = if (precision == Precision.Single) 0xffffffffL else -1L
      val walk = Array.tabulate(extent.product.toInt)(i => (rng.nextLong() & 0xff) + i.toLong * 977)
      val block = FpBlock(precision, extent, walk.map(_ & mask))
      for (codec <- Seq(new NdzipCpu(2), new NdzipGpu)) {
        val bytes = codec.compress(block).bytes
        val back  = codec.decompress(bytes, precision, extent).block
        assert(java.util.Arrays.equals(back.bits, block.bits), s"${codec.name} $extent")
      }
    }
}
