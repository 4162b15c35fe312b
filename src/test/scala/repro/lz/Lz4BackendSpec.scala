package repro.lz

import repro.{PropSupport, SparkSpec}
import repro.codecs.TestInputs
import repro.codecs.cpu.BitshuffleBase
import org.scalacheck.{Gen, Prop}

/** [[Lz4Backend]]'s port of lz4-java's 64 KiB coder against lz4-java itself
  * ([[Lz4JavaFast]]). The calls run one after another on one thread, so
  * each finds the hash table as earlier calls of other lengths left it.
  */
class Lz4BackendSpec extends SparkSpec with PropSupport {
  import Lz4BackendSpec._

  test("property: the port writes lz4-java's bytes for 0 to 65 546 bytes at non-zero offsets") {
    val gen = for {
      len    <- Gen.frequency(2 -> Gen.choose(0, 16), 3 -> Gen.choose(17, 5000), 2 -> Gen.choose(5001, 65546),
                              2 -> Gen.oneOf(12, 13, 4096, 65535, 65536, 65546))
      kind   <- Gen.oneOf(Kinds)
      off    <- Gen.choose(1, 100)
      outOff <- Gen.choose(0, 100)
      seed   <- Gen.choose(Long.MinValue, Long.MaxValue)
    } yield (len, kind, off, outOff, seed)
    checkProp(Prop.forAllNoShrink(gen) { case (len, kind, off, outOff, seed) =>
      val in = framed(input(kind, len, seed), off)
      Prop.propBoolean(java.util.Arrays.equals(encoded(Lz4Backend, in, off, len, outOff), Lz4JavaFast.compress(in, off, len))) :|
        s"len=$len kind=$kind off=$off outOff=$outOff seed=$seed"
    }, minTests = 150)
  }

  test("inputs of 65 547 bytes and more are coded as lz4-java codes them") {
    for (len <- Seq(65547, 200000); kind <- Kinds) {
      val in = framed(input(kind, len, len.toLong), 5)
      val coded = encoded(Lz4Backend, in, 5, len, 3)
      assert(java.util.Arrays.equals(coded, Lz4JavaFast.compress(in, 5, len)), s"len=$len kind=$kind")
      assert(Lz4Backend.decompress(coded, len).sameElements(in.slice(5, 5 + len)))
    }
  }
}

object Lz4BackendSpec {
  val Kinds: Seq[String] = Seq("random", "runs", "shuffled")

  /** `backend`'s part of `in(off until off + len)`, coded at `outOff` of an
    * array of stale bytes, as a frame codes it; a write outside the part's
    * region of `bound(len)` bytes raises.
    */
  def encoded(backend: LzBackend, in: Array[Byte], off: Int, len: Int, outOff: Int): Array[Byte] = {
    val stale = 0x5a.toByte
    val end   = outOff + backend.bound(len)
    val out   = Array.fill(end + 8)(stale)
    val n     = backend.encode(in, off, len, out, outOff)
    require((0 until outOff).forall(out(_) == stale) && (end until out.length).forall(out(_) == stale),
            s"${backend.getClass.getSimpleName} wrote outside its region")
    java.util.Arrays.copyOfRange(out, outOff, outOff + n)
  }

  /** `len` bytes from `seed`: uniform, runs of 2-4 byte values, or the
    * bitshuffled bytes of a page of random-walk or two-decimal doubles.
    */
  def input(kind: String, len: Int, seed: Long): Array[Byte] = kind match {
    case "random" => Lza6Spec.input(len, 0, seed)
    case "runs"   => Lza6Spec.input(len, 2 + (seed & 1).toInt + (seed >>> 63).toInt, seed)
    case _ =>
      val n     = math.max(1, (len + 7) / 8)
      val block = if ((seed & 1) == 0) TestInputs.randomWalkD(n, seed) else TestInputs.decimalD(n, 2, 0, seed)
      val out   = new Array[Byte](n * 8)
      BitshuffleBase.shuffle(block.bits, 0, out, out.length, 8)
      out.take(len)
  }

  /** `data` at offset `off`, between bytes copied from it, so that a coder
    * that read outside its range would find matches there.
    */
  def framed(data: Array[Byte], off: Int): Array[Byte] = {
    def fill(n: Int) = Array.tabulate[Byte](n)(i => if (data.isEmpty) 0x5a else data(i % data.length))
    fill(off) ++ data ++ fill(16)
  }
}
