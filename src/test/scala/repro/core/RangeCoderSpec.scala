package repro.core

import repro.{PropSupport, SparkSpec}
import org.scalacheck.{Gen, Prop}

class RangeCoderSpec extends SparkSpec with PropSupport {

  private def roundtrip(symbols: Seq[Int], alphabet: Int): Seq[Int] = {
    val enc = new RangeEncoder(new BitWriter)
    val em  = new AdaptiveModel(alphabet)
    symbols.foreach(em.encodeSymbol(enc, _))
    val bytes = enc.finish().toArray
    val dec = new RangeDecoder(bytes, 0, bytes.length)
    val dm  = new AdaptiveModel(alphabet)
    symbols.map(_ => dm.decodeSymbol(dec))
  }

  test("uniform symbols roundtrip") {
    val rng  = new scala.util.Random(1)
    val syms = Seq.fill(5000)(rng.nextInt(65))
    assert(roundtrip(syms, 65) == syms)
  }

  test("skewed symbols roundtrip and compress") {
    val rng  = new scala.util.Random(2)
    val syms = Seq.fill(20000)(if (rng.nextInt(10) < 9) 3 else rng.nextInt(65))
    val enc  = new RangeEncoder(new BitWriter)
    val m    = new AdaptiveModel(65)
    syms.foreach(m.encodeSymbol(enc, _))
    val bytes = enc.finish().toArray
    assert(roundtrip(syms, 65) == syms)
    // ~90% of symbols are '3': an adaptive coder must beat 1 byte/symbol easily
    assert(bytes.length < syms.length / 2, s"poor compression: ${bytes.length}")
  }

  test("single symbol stream") {
    assert(roundtrip(Seq(7), 9) == Seq(7))
  }

  test("empty stream") {
    assert(roundtrip(Seq.empty, 5) == Seq.empty)
  }

  test("alphabet boundaries (first and last symbol)") {
    val syms = Seq(0, 64, 0, 64, 64, 0)
    assert(roundtrip(syms, 65) == syms)
  }

  test("property: random streams over random alphabets roundtrip") {
    val gen = for {
      alphabet <- Gen.choose(2, 65)
      syms     <- Gen.listOfN(500, Gen.choose(0, alphabet - 1))
    } yield (alphabet, syms)
    checkProp(Prop.forAll(gen) { case (alphabet, syms) =>
      roundtrip(syms, alphabet) == syms
    }, minTests = 30)
  }

  test("the decoder reads exactly the bytes the encoder wrote, and raises on a cut stream") {
    val rng   = new scala.util.Random(3)
    val syms  = Seq.fill(5000)(if (rng.nextInt(4) == 0) rng.nextInt(65) else 7)
    val enc   = new RangeEncoder(new BitWriter)
    val em    = new AdaptiveModel(65)
    syms.foreach(em.encodeSymbol(enc, _))
    val bytes = enc.finish().toArray
    def decode(end: Int): (Seq[Int], Int) = {
      val dec = new RangeDecoder(bytes, 0, end)
      val dm  = new AdaptiveModel(65)
      (syms.map(_ => dm.decodeSymbol(dec)), dec.bytesConsumed)
    }
    assert(decode(bytes.length) == (syms, bytes.length))
    for (cut <- Seq(0, 3, 4, bytes.length / 2, bytes.length - 1))
      withClue(s"cut at $cut of ${bytes.length} bytes: ") {
        intercept[IllegalArgumentException](decode(cut))
      }
  }

  test("the decoder rejects a range outside its buffer") {
    val bytes = new Array[Byte](8)
    for ((start, end) <- Seq((-1, 8), (0, 9), (5, 4)))
      intercept[IllegalArgumentException](new RangeDecoder(bytes, start, end))
  }

  test("adaptive model rescales without breaking invariants") {
    // Push far past the 2^15 rescale threshold.
    val syms = Seq.fill(50000)(1)
    assert(roundtrip(syms, 3) == syms)
  }
}
