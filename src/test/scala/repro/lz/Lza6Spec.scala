package repro.lz

import repro.{PropSupport, SparkSpec}
import org.scalacheck.{Gen, Prop}

class Lza6Spec extends SparkSpec with PropSupport {

  private def roundtrip(in: Array[Byte]): Array[Byte] =
    Lza6.decompress(Lza6.compress(in)._1, in.length)._1

  test("empty input") {
    assert(roundtrip(Array.empty).isEmpty)
  }

  test("input shorter than min match") {
    val in = Array[Byte](1, 2, 3)
    assert(roundtrip(in).sameElements(in))
  }

  test("highly repetitive input compresses well") {
    val in = Array.fill(100000)("abcdef".getBytes).flatten.take(100000)
    val (comp, _) = Lza6.compress(in)
    assert(comp.length < in.length / 10, s"got ${comp.length}")
    assert(roundtrip(in).sameElements(in))
  }

  test("incompressible input roundtrips") {
    val rng = new scala.util.Random(3)
    val in  = Array.fill(50000)(rng.nextInt().toByte)
    assert(roundtrip(in).sameElements(in))
  }

  test("long literal runs (>15, >270) roundtrip") {
    val rng = new scala.util.Random(4)
    for (n <- Seq(16, 271, 300, 1000)) {
      val in = Array.fill(n)(rng.nextInt().toByte)
      assert(roundtrip(in).sameElements(in), s"n=$n")
    }
  }

  test("long matches (>15+4, >270) roundtrip") {
    for (n <- Seq(50, 300, 5000)) {
      val in = Array.fill(n)(42.toByte)
      val (comp, _) = Lza6.compress(in)
      assert(roundtrip(in).sameElements(in), s"n=$n")
      assert(comp.length < n / 2 + 16, s"n=$n compressed to ${comp.length}")
    }
  }

  test("overlapping match copies (RLE-style) decode correctly") {
    val in = ("ab" * 5000).getBytes
    assert(roundtrip(in).sameElements(in))
  }

  test("matches beyond the 64KB window are not used") {
    // pattern at position 0 repeats after 100000 bytes of noise
    val rng     = new scala.util.Random(5)
    val pattern = "0123456789abcdef".getBytes
    val in      = pattern ++ Array.fill(100000)(rng.nextInt().toByte) ++ pattern
    assert(roundtrip(in).sameElements(in))
  }

  test("property: arbitrary byte arrays roundtrip") {
    val gen = for {
      n     <- Gen.choose(0, 3000)
      // mix of random and structured content
      bias  <- Gen.choose(1, 8)
      bytes <- Gen.listOfN(n, Gen.choose(0, (1 << bias) - 1).map(_.toByte))
    } yield bytes.toArray
    checkProp(Prop.forAll(gen)(in => roundtrip(in).sameElements(in)), minTests = 60)
  }

  test("property: compress matches the full-prev oracle in bytes and WorkProfile") {
    // Runs over 2-4 symbols fill the hash chains past MaxChain; 65 535..65 537
    // bytes sit at the window size, 131 071..131 073 at the prev ring's size,
    // and 200 000 bytes wrap the ring.
    val gen = for {
      n <- Gen.frequency(3 -> Gen.choose(0, 4), 4 -> Gen.choose(5, 3000),
                         2 -> Gen.oneOf(65535, 65536, 65537, 131071, 131072, 131073, 200000))
      symbols <- Gen.oneOf(0, 2, 3, 4) // 0: uniform random bytes
      seed    <- Gen.choose(Long.MinValue, Long.MaxValue)
    } yield (n, symbols, seed)
    checkProp(Prop.forAllNoShrink(gen) { case (n, symbols, seed) =>
      val in = Lza6Spec.input(n, symbols, seed)
      val (bytes, work)           = Lza6.compress(in)
      val (oracleBytes, oracleWork) = FullPrevLza6.compress(in)
      Prop.propBoolean(java.util.Arrays.equals(bytes, oracleBytes) && work == oracleWork) :|
        s"n=$n symbols=$symbols seed=$seed: ${bytes.length} vs ${oracleBytes.length} bytes, $work vs $oracleWork"
    }, minTests = 120)
  }

  test("a match longer than the window skips a link-building segment; output equals the oracle") {
    // The run's match jumps the search past every linked position; the bytes
    // after it match into the skipped run and into each other.
    val rng = new scala.util.Random(8)
    def noise(n: Int) = Array.fill(n)(rng.nextInt().toByte)
    for (run <- Seq(65537, 70000, 140000)) {
      val a  = noise(3000)
      val c  = noise(1000)
      val in = a ++ Array.fill(run)(0x5a.toByte) ++ c ++ Array.fill(500)(0x5a.toByte) ++ c ++ a.take(100)
      val (bytes, work) = Lza6.compress(in)
      val (oracleBytes, oracleWork) = FullPrevLza6.compress(in)
      assert(java.util.Arrays.equals(bytes, oracleBytes) && work == oracleWork, s"run=$run")
      assert(roundtrip(in).sameElements(in), s"run=$run")
    }
  }

  test("uniform random inputs longer than the link ring equal the oracle") {
    // Hash chains in random bytes reach far back into the window, so a link
    // overwritten too early (links built more than a window ahead) is read.
    for (n <- Seq(200000, 300000); seed <- 1L to 2L) {
      val in = Lza6Spec.input(n, 0, seed)
      val (bytes, work) = Lza6.compress(in)
      val (oracleBytes, oracleWork) = FullPrevLza6.compress(in)
      assert(java.util.Arrays.equals(bytes, oracleBytes) && work == oracleWork, s"n=$n seed=$seed")
    }
  }

  test("a one-thread sequence of empty, short, 4 KiB, 64 KiB and 256 KiB inputs equals the oracle call by call") {
    // Prefixes of one input: a `head` slot a longer call left behind would
    // offer the short calls in-window candidates with matching bytes.
    for (symbols <- Seq(0, 3)) {
      val big = Lza6Spec.input(256 << 10, symbols, 31L + symbols)
      for ((n, k) <- Seq(256 << 10, 4096, 0, 7, 64 << 10, 12, 4096, 256 << 10, 3, 64 << 10, 0, 4096).zipWithIndex) {
        val in = big.take(n)
        val (bytes, work) = Lza6.compress(in)
        val (oracleBytes, oracleWork) = FullPrevLza6.compress(in)
        assert(java.util.Arrays.equals(bytes, oracleBytes) && work == oracleWork, s"symbols=$symbols call $k: n=$n")
      }
    }
  }

  test("backends: LZ4 roundtrip") {
    val rng = new scala.util.Random(6)
    val in  = Array.fill(10000)((rng.nextInt(8) + 'a').toByte)
    assert(Lz4Backend.decompress(Lz4Backend.compress(in), in.length).sameElements(in))
  }

  test("backends: zstd roundtrip") {
    val rng = new scala.util.Random(7)
    val in  = Array.fill(10000)((rng.nextInt(8) + 'a').toByte)
    assert(ZstdBackend.decompress(ZstdBackend.compress(in), in.length).sameElements(in))
  }

  test("backends: zstd empty input") {
    assert(ZstdBackend.decompress(ZstdBackend.compress(Array.empty), 0).isEmpty)
  }

  test("backends: LZ4 empty input") {
    assert(Lz4Backend.decompress(Lz4Backend.compress(Array.empty), 0).isEmpty)
  }
}

object Lza6Spec {
  /** `n` bytes from `seed`: uniform when `symbols` is 0, otherwise runs of
    * 1 to 300 copies of one of `symbols` byte values.
    */
  def input(n: Int, symbols: Int, seed: Long): Array[Byte] = {
    val rng = new scala.util.Random(seed)
    val out = new Array[Byte](n)
    if (symbols == 0) rng.nextBytes(out)
    else {
      val alphabet = Array.fill(symbols)(rng.nextInt().toByte)
      var i = 0
      while (i < n) {
        val b   = alphabet(rng.nextInt(symbols))
        val end = math.min(n, i + 1 + rng.nextInt(300))
        while (i < end) { out(i) = b; i += 1 }
      }
    }
    out
  }
}
