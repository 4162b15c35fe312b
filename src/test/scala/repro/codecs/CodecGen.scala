package repro.codecs

import org.scalacheck.Gen

import repro.core.{Codec, FpBlock, Precision, ThreadedCodec}

/** The blocks every block-level codec property draws: either precision,
  * extents of 1 to 4 dimensions, a value process, specials mixed in, and
  * sizes weighted at the boundaries the codecs branch on.
  */
object CodecGen {

  /** One drawn block, kept as the choices that make it so that a failing
    * case prints in a form that rebuilds it. `specials` is the share of
    * values replaced by IEEE specials, at least one when it is above 0.
    */
  final case class Drawn(precision: Precision, extent: Seq[Long], process: String, specials: Double, seed: Long) {
    lazy val block: FpBlock = {
      val n    = extent.product.toInt
      val rng  = new scala.util.Random(seed)
      val bits = Processes(process)(precision, n, rng)
      val pick = Specials(precision)
      if (specials > 0)
        for (_ <- 0 until math.max(1, (specials * n).toInt)) bits(rng.nextInt(n)) = pick(rng.nextInt(pick.length))
      FpBlock(precision, extent, bits)
    }
  }

  private def mask(p: Precision): Long = if (p == Precision.Single) 0xffffffffL else -1L

  private def fromDouble(p: Precision, x: Double): Long =
    if (p == Precision.Single) FpBlock.singleBits(x.toFloat) else java.lang.Double.doubleToRawLongBits(x)

  /** Value processes by name: `n` bit patterns of a precision from a seeded generator. */
  val Processes: Map[String, (Precision, Int, scala.util.Random) => Array[Long]] = Map(
    "random" -> ((p, n, rng) => Array.fill(n)(rng.nextLong() & mask(p))),
    // The words MPC's worst case is made of.
    "non-zero" -> ((p, n, rng) => Array.fill(n) {
      var v = 0L
      while (v == 0) v = if (p == Precision.Double) rng.nextLong() else rng.nextInt() & 0xffffffffL
      v
    }),
    // A slow walk whose low bytes and bit planes repeat, so LZ stages find matches.
    "walk" -> ((p, n, _) => Array.tabulate(n)(i => FpBlock.singleBits((i / 7).toFloat) << (p.bits - 32))),
    // Repeats of a small pool (an all-zero pFPC residual), small steps (a few
    // residual bytes) and random words (all of them).
    "pool" -> { (p, n, rng) =>
      val pool = Array.fill(1 + rng.nextInt(16))(rng.nextLong())
      var prev = rng.nextLong()
      Array.fill(n) {
        prev = rng.nextInt(3) match {
          case 0 => pool(rng.nextInt(pool.length))
          case 1 => prev + rng.nextInt(1 << rng.nextInt(24))
          case _ => rng.nextLong()
        }
        prev & mask(p)
      }
    },
    // A ramp with a random low byte: smooth across ndzip's tiles and borders.
    "ramp" -> ((p, n, rng) => Array.tabulate(n)(i => ((rng.nextLong() & 0xff) + i.toLong * 977) & mask(p))),
    "gaussian" -> { (p, n, rng) =>
      var x = 0.0
      Array.fill(n) { x += rng.nextGaussian(); fromDouble(p, x) }
    },
    // Values rounded to 0-10 decimals: the bounded-precision data BUFF quantizes.
    "decimal" -> { (p, n, rng) =>
      val scale = math.pow(10, rng.nextInt(11))
      val lo    = rng.nextGaussian() * 2000
      Array.fill(n)(fromDouble(p, math.rint((lo + rng.nextDouble() * 1000) * scale) / scale))
    })

  /** NaNs with payloads, ±0, the smallest and largest subnormals, ±∞ and all-ones. */
  val Specials: Map[Precision, Array[Long]] = Map(
    Precision.Double -> Array(0x7ff8000000000000L, 0x7ff8000000abcdefL, 0x7ff0000000000001L, 0xfff8000000000000L,
                              0L, 0x8000000000000000L, 1L, 0x000fffffffffffffL,
                              0x7ff0000000000000L, 0xfff0000000000000L, -1L),
    Precision.Single -> Array(0x7fc00000L, 0x7fc00abcL, 0x7f800001L, 0xffc00000L,
                              0L, 0x80000000L, 1L, 0x007fffffL,
                              0x7f800000L, 0xff800000L, 0xffffffffL))

  /** Value counts around the boundaries the codecs branch on. */
  val sizes: Gen[Int] = Gen.frequency(
    3 -> Gen.choose(1, 9),
    3 -> Gen.choose(10, 2000),
    // Word edges, MPC's 1 024-value chunks, ndzip's 4 096-value tile and nv:btcomp's chunk.
    2 -> Gen.zip(Gen.oneOf(32, 64, 1024, 4096), Gen.choose(-1, 1)).map { case (b, d) => b + d },
    // 4 KiB bitshuffle chunks and pages: 512 doubles, 1 024 singles.
    2 -> Gen.zip(Gen.choose(1, 17), Gen.choose(-9, 9)).map { case (k, d) => k * 512 + d },
    // 64 KiB LZ parts of doubles.
    1 -> Gen.zip(Gen.choose(1, 4), Gen.choose(-70, 70)).map { case (k, d) => k * 8192 + d },
    // SPDP's LZa6 window.
    1 -> Gen.choose(30000, 33000),
    1 -> Gen.choose(1, 70000))

  /** 1-D extents of `sizes`, drawn 2- to 4-D ones with awkward sides, and
    * ndzip's aligned and misaligned shapes.
    */
  val extents: Gen[Seq[Long]] = Gen.frequency(
    8 -> sizes.map(n => Seq(n.toLong)),
    1 -> Gen.listOfN(2, Gen.choose(1L, 200L)),
    1 -> Gen.listOfN(3, Gen.choose(1L, 40L)),
    1 -> Gen.listOfN(4, Gen.choose(1L, 9L)),
    1 -> Gen.oneOf(Seq(64L, 64L), Seq(128L, 64L), Seq(65L, 200L), Seq(16L, 16L, 16L), Seq(32L, 16L, 48L),
                   Seq(17L, 33L, 20L), Seq(3L, 40L, 40L), Seq(2L, 2L, 2L, 2L)))

  val drawn: Gen[Drawn] = for {
    precision <- Gen.oneOf(Precision.Double, Precision.Single)
    extent    <- extents
    process   <- Gen.oneOf(Processes.keys.toSeq.sorted)
    specials  <- Gen.frequency(4 -> 0.0, 1 -> 0.01, 1 -> 0.3, 1 -> 1.0)
    seed      <- Gen.choose(Long.MinValue, Long.MaxValue)
  } yield Drawn(precision, extent, process, specials, seed)

  /** Ramps over extents with and without whole ndzip tiles, with border
    * slabs on every axis, in both precisions.
    */
  val tileExamples: Seq[Drawn] =
    for (extent <- Seq(Seq(5000L), Seq(4097L), Seq(100L), Seq(65L, 200L), Seq(17L, 33L, 20L), Seq(3L, 40L, 40L),
                       Seq(2L, 2L, 2L, 2L));
         precision <- Seq(Precision.Single, Precision.Double))
      yield Drawn(precision, extent, "ramp", 0, extent.product)

  /** All-non-zero words at MPC's word and 1 024-value chunk edges. */
  val chunkEdgeExamples: Seq[Drawn] =
    for (p <- Seq(Precision.Double, Precision.Single); n <- Seq(1, 31, 32, 33, 1023, 1024, 1025, 4097))
      yield Drawn(p, Seq(n.toLong), "non-zero", 0, n.toLong)

  /** `codec` at `t` threads where it takes a thread count. */
  def atThreads(codec: Codec, t: Int): Codec = codec match {
    case c: ThreadedCodec => c.withThreads(t)
    case c                => c
  }

  /** Why `codec` does not decode its own stream of `b` to `b`, bit for bit
    * and with its precision and extent, or None.
    */
  def roundTrip(codec: Codec, b: FpBlock): Option[String] = {
    val back = codec.decompress(codec.compress(b).bytes, b.precision, b.extent).block
    val at   = java.util.Arrays.mismatch(back.bits, b.bits)
    if (back.precision != b.precision || back.extent != b.extent)
      Some(s"${codec.name} decodes as ${back.precision} ${back.extent.mkString("x")}")
    else if (at >= 0) Some(s"${codec.name}: first mismatch at index $at")
    else None
  }
}
