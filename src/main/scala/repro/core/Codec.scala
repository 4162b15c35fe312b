package repro.core

/** Work accounting for one codec pass, feeding the roofline analysis (§6.3)
  * and the GPU cost model. Codecs estimate their dominant loop's memory
  * traffic and scalar operations; exactness is not required — the roofline
  * model only needs the right order of magnitude of arithmetic intensity.
  *
  * @param bytesRead    bytes the hot loop streams in
  * @param bytesWritten bytes the hot loop streams out
  * @param ops          scalar integer/FP operations in the hot loop
  * @param divergent    true when the hot loop is branch-heavy (LZ match
  *                     searching) — on the GPU model this serializes warps
  */
final case class WorkProfile(bytesRead: Long, bytesWritten: Long, ops: Long, divergent: Boolean) {
  def traffic: Long = bytesRead + bytesWritten
  def arithmeticIntensity: Double = ops.toDouble / math.max(1L, traffic)
  def +(o: WorkProfile): WorkProfile =
    WorkProfile(bytesRead + o.bytesRead, bytesWritten + o.bytesWritten,
                ops + o.ops, divergent || o.divergent)
}

object WorkProfile {
  val zero: WorkProfile = WorkProfile(0, 0, 0, divergent = false)
}

/** Result of one compression pass: the payload plus its work profile. */
final case class Compressed(bytes: Array[Byte], work: WorkProfile)

/** Result of one decompression pass. */
final case class Decompressed(block: FpBlock, work: WorkProfile)

/** A lossless floating-point codec under benchmark.
  *
  * Implementations must be bit-exact: `decompress(compress(b).bytes, ...)`
  * returns a block whose `bits` equal the input's. The compressed stream is
  * self-contained *given* the block's metadata (precision, extent), which the
  * harness stores out of band — exactly as the paper's harness passes
  * dimensionality on the command line.
  */
trait Codec extends Serializable {
  /** Short name matching the paper's table columns, e.g. "shf+zstd". */
  def name: String

  /** "CPU" or "GPU" — decides measured vs. modeled timing in
    * [[repro.harness.Measure]].
    */
  def platform: String

  def compress(block: FpBlock): Compressed

  def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed
}

/** Registry of the 14 evaluated methods, keyed by the paper's column names. */
object CodecRegistry {
  import repro.codecs.cpu._
  import repro.codecs.gpu._

  lazy val cpu: Seq[Codec] = Seq(
    new Pfpc(), new Spdp(), new Fpzip(), new BitshuffleLz4(), new BitshuffleZstd(),
    new NdzipCpu(), new Buff(), new Gorilla(), new Chimp())

  lazy val gpu: Seq[Codec] = Seq(
    new Gfc(), new Mpc(), new NvLz4(), new NvBitcomp(), new NdzipGpu())

  lazy val all: Seq[Codec] = cpu ++ gpu

  def byName(name: String): Codec =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown codec: $name (known: ${all.map(_.name).mkString(", ")})"))
}
