package repro.codecs.cpu

import com.github.luben.zstd.Zstd
import org.scalacheck.{Gen, Prop}

import repro.{PropSupport, SparkSpec}
import repro.codecs.gpu.NvLz4
import repro.core.{Codec, Compressed, FpBlock, Frame, Precision, WorkProfile}
import repro.lz.{Lz4Backend, ZstdBackend}

/** The word-path bitshuffle against the byte path kept in
  * [[BytePathBitshuffle]], the LZ back ends' range calls, and how a bad part
  * fails.
  */
class BitshuffleSpec extends SparkSpec with PropSupport {
  import BitshuffleSpec._

  test("property: the transpose equals the byte-path shuffle for 0-70 000 values of either precision") {
    checkProp(Prop.forAllNoShrink(inputs) { case (precision, n, walk, seed) =>
      val bits     = values(precision, n, walk, seed)
      val elemSize = precision.bytes
      // FpBlock holds at least one value; the transpose also takes none.
      val raw      = if (n == 0) Array.emptyByteArray else FpBlock(precision, Seq(n.toLong), bits).toBytes
      val ranges   = Frame.fixedRanges(raw.length, BitshuffleBase.BlockBytes)
      val failure = ranges.collectFirst(Function.unlift { case (from, until) =>
        val oracle = BytePathBitshuffle.shuffle(raw, from, until, elemSize)
        val got    = new Array[Byte](until - from)
        BitshuffleBase.shuffle(bits, from / elemSize, got, elemSize)
        val back = new Array[Long](n)
        BitshuffleBase.unshuffle(oracle, back, from / elemSize, elemSize)
        if (!java.util.Arrays.equals(got, oracle)) Some(s"shuffle of bytes $from until $until differs")
        else if (!java.util.Arrays.equals(back, from / elemSize, until / elemSize, bits, from / elemSize, until / elemSize))
          Some(s"unshuffle of bytes $from until $until differs")
        else None
      })
      Prop.propBoolean(failure.isEmpty) :| s"$precision n=$n walk=$walk seed=$seed: ${failure.getOrElse("")}"
    }, minTests = 200)
  }

  for (threads <- Seq(1, 4))
    test(s"property: shf+LZ4, shf+zstd and nv:LZ4 streams equal the byte path's with threads = $threads") {
      val codecs: Seq[(Codec, FpBlock => Compressed)] = Seq(
        new BitshuffleLz4(threads)  -> (BytePathBitshuffle.compress(BytePathBitshuffle.Lz4, _)),
        new BitshuffleZstd(threads) -> (BytePathBitshuffle.compress(BytePathBitshuffle.Zstd, _)),
        new NvLz4                   -> copiedPartsLz4)
      checkProp(Prop.forAllNoShrink(inputs.suchThat(_._2 > 0)) { case (precision, n, walk, seed) =>
        val b = block(precision, n, walk, seed)
        val failure = codecs.collectFirst(Function.unlift { case (codec, oracle) =>
          val comp   = codec.compress(b)
          val want   = oracle(b)
          val back   = codec.decompress(want.bytes, precision, b.extent)
          if (!java.util.Arrays.equals(comp.bytes, want.bytes) || comp.work != want.work)
            Some(s"${codec.name} encode differs")
          else if (!java.util.Arrays.equals(back.block.bits, b.bits) || back.block.extent != b.extent)
            Some(s"${codec.name} decode is lossy")
          else None
        })
        Prop.propBoolean(failure.isEmpty) :| s"$precision n=$n walk=$walk seed=$seed: ${failure.getOrElse("")}"
      }, minTests = 100)
    }

  test("the byte path decodes to the same values and work as the word path") {
    for ((precision, n) <- Seq(Precision.Double -> 20001, Precision.Single -> 40003, Precision.Double -> 7)) {
      val b = block(precision, n, walk = true, seed = n.toLong)
      for ((codec, backend) <- Seq(new BitshuffleLz4(4) -> BytePathBitshuffle.Lz4,
                                   new BitshuffleZstd(4) -> BytePathBitshuffle.Zstd)) {
        val bytes = codec.compress(b).bytes
        val got   = codec.decompress(bytes, precision, b.extent)
        val want  = BytePathBitshuffle.decompress(backend, bytes, precision, b.extent)
        assert(java.util.Arrays.equals(got.block.bits, want.block.bits) && got.work == want.work,
               s"${codec.name} $precision n=$n")
      }
    }
  }

  test("the back ends code a range of an array and decode into an offset, leaving the rest as it was") {
    val rng = new scala.util.Random(9)
    val in  = Array.fill(30000)((rng.nextInt(6) + 'a').toByte)
    val (off, len) = (1234, 20000)
    val part = java.util.Arrays.copyOfRange(in, off, off + len)
    val cases: Seq[(String, Array[Byte], Array[Byte], (Array[Byte], Int, Int, Array[Byte], Int, Int) => Unit)] = Seq(
      ("LZ4", Lz4Backend.compress(in, off, len), Lz4Backend.compress(part), Lz4Backend.decompress),
      ("zstd", ZstdBackend.compress(in, off, len), ZstdBackend.compress(part), ZstdBackend.decompress))
    for ((name, ranged, whole, decode) <- cases) {
      assert(java.util.Arrays.equals(ranged, whole), name)
      val framed = Array.fill[Byte](7)(5) ++ ranged ++ Array.fill[Byte](9)(6)
      val out    = Array.fill[Byte](len + 100)(-1)
      decode(framed, 7, ranged.length, out, 40, len)
      assert(java.util.Arrays.equals(out, 40, 40 + len, part, 0, len), name)
      assert(out.take(40).forall(_ == -1) && out.drop(40 + len).forall(_ == -1), s"$name wrote outside its range")
    }
  }

  test("zstd through a reused context writes the frames of a new context per call") {
    val rng = new scala.util.Random(10)
    for (n <- Seq(0, 1, 4096, 65536, 200000)) {
      val in = Array.tabulate(n)(i => if (rng.nextInt(4) == 0) rng.nextInt().toByte else (i >> 5).toByte)
      assert(java.util.Arrays.equals(ZstdBackend.compress(in), Zstd.compress(in, ZstdBackend.Level)), s"n=$n")
    }
  }

  test("a zstd decode that throws leaves the thread's contexts usable for the next call") {
    val rng   = new scala.util.Random(11)
    val in    = Array.tabulate(65536)(i => if (rng.nextInt(3) == 0) rng.nextInt().toByte else (i >> 7).toByte)
    val out   = new Array[Byte](in.length)
    // The contract lives in LzBackend, so LZ4 runs through the same table.
    for ((name, backend) <- Seq("LZ4" -> Lz4Backend, "zstd" -> ZstdBackend)) {
      val frame = backend.compress(in)
      val bad = Seq(
        "cut mid-frame"  -> (() => backend.decompress(frame, 0, frame.length / 2, out, 0, in.length)),
        "too small"      -> (() => backend.decompress(frame, 0, frame.length, out, 0, in.length - 1)),
        "corrupt header" -> (() => backend.decompress(Array.fill[Byte](64)(0x55), 0, 64, out, 0, in.length)))
      for ((what, call) <- bad) {
        withClue(s"$name $what: ")(intercept[IllegalArgumentException](call()))
        java.util.Arrays.fill(out, 0.toByte)
        backend.decompress(frame, 0, frame.length, out, 0, in.length)
        assert(java.util.Arrays.equals(out, in), s"$name decode after a $what failure")
        assert(java.util.Arrays.equals(backend.compress(in), frame), s"$name encode after a $what failure")
      }
    }
  }

  /** A 64 KiB part (8 192 doubles) that is a whole, valid frame of 60 000 bytes. */
  for ((codec, encode) <- Seq[(Codec, Array[Byte] => Array[Byte])](
         new BitshuffleZstd(1) -> (Zstd.compress(_, ZstdBackend.Level)),
         new BitshuffleLz4(1) -> (Lz4Backend.compress(_)), new NvLz4 -> (Lz4Backend.compress(_))))
    test(s"${codec.name} raises on a part that is a whole frame of too few bytes") {
      val rng   = new scala.util.Random(12)
      val short = encode(Array.fill(60000)(rng.nextInt(4).toByte))
      val data  = Frame.write(Seq(short))
      intercept[IllegalArgumentException](codec.decompress(data, Precision.Double, Seq(8192L)))
    }

  for (codec <- Seq[Codec](new BitshuffleLz4(1), new BitshuffleZstd(1), new NvLz4))
    test(s"${codec.name} raises on a part cut by one byte, whether or not the next part follows it") {
      val b     = block(Precision.Double, 20000, walk = true, seed = 13)
      val data  = codec.compress(b).bytes
      val offs  = Frame.read(data, 3, 3)
      val parts = (0 until 3).map(i => java.util.Arrays.copyOfRange(data, offs(i), offs(i + 1)))
      assert(java.util.Arrays.equals(Frame.write(parts), data))
      for (i <- 0 until 3) {
        val cut = Frame.write(parts.updated(i, parts(i).init))
        withClue(s"part $i cut: ")(intercept[IllegalArgumentException](codec.decompress(cut, b.precision, b.extent)))
      }
      // The first part's length one short, its last byte read as the next part's first.
      val shifted = java.nio.ByteBuffer.wrap(data.clone()).order(java.nio.ByteOrder.LITTLE_ENDIAN)
      shifted.putInt(4, offs(1) - offs(0) - 1).putInt(8, offs(2) - offs(1) + 1)
      intercept[IllegalArgumentException](codec.decompress(shifted.array, b.precision, b.extent))
    }
}

object BitshuffleSpec {
  /** `n` values of `precision` from `seed`: random bit patterns, or a slow
    * walk whose bit planes repeat, so the LZ stage finds matches.
    */
  def values(precision: Precision, n: Int, walk: Boolean, seed: Long): Array[Long] = {
    val rng  = new scala.util.Random(seed)
    val mask = if (precision == Precision.Single) 0xffffffffL else -1L
    if (walk) Array.tabulate(n)(i => FpBlock.singleBits((i / 7).toFloat) << (precision.bits - 32))
    else Array.fill(n)(rng.nextLong() & mask)
  }

  def block(precision: Precision, n: Int, walk: Boolean, seed: Long): FpBlock =
    FpBlock(precision, Seq(n.toLong), values(precision, n, walk, seed))

  /** Value counts around every boundary the transpose has: groups of 8, 32
    * and 64 values, 4096-byte chunks (512 doubles, 1024 singles) and 64 KiB
    * parts (8192 doubles, 16 384 singles), up to 70 000.
    */
  val counts: Gen[Int] = Gen.frequency(
    2 -> Gen.choose(0, 9),
    3 -> Gen.choose(10, 1100),
    3 -> Gen.zip(Gen.choose(1, 17), Gen.choose(-9, 9)).map { case (k, d) => math.max(0, k * 512 + d) },
    2 -> Gen.zip(Gen.choose(1, 4), Gen.choose(-70, 70)).map { case (k, d) => k * 8192 + d },
    1 -> Gen.choose(0, 70000))

  val inputs: Gen[(Precision, Int, Boolean, Long)] = for {
    precision <- Gen.oneOf(Precision.Single, Precision.Double)
    n         <- counts
    walk      <- Gen.oneOf(true, false)
    seed      <- Gen.choose(Long.MinValue, Long.MaxValue)
  } yield (precision, n, walk, seed)

  /** nv:LZ4 as it was: every 64 KiB range of the raw bytes copied, then
    * coded by the library's fast compressor.
    */
  def copiedPartsLz4(b: FpBlock): Compressed = {
    val raw = b.toBytes
    val parts = Frame.fixedRanges(raw.length, 65536).map { case (from, until) =>
      BytePathBitshuffle.encode(BytePathBitshuffle.Lz4, java.util.Arrays.copyOfRange(raw, from, until))
    }
    val bytes = Frame.write(parts)
    Compressed(bytes, WorkProfile(raw.length.toLong * 4, bytes.length, raw.length.toLong * 12, divergent = true))
  }
}
