package repro.harness

import repro.core.{Codec, FpBlock, WorkProfile}
import repro.gpusim.GpuModel

/** The timing rule behind every table (paper §5). A CPU codec is measured:
  * one untimed warm-up run, whose result the caller keeps, then `iters`
  * timed runs, of which the fastest counts. A GPU codec runs once, and its
  * time comes from [[repro.gpusim.GpuModel]] over that run's work profile.
  * Every table cell is one [[roundtrip]], checked bit for bit.
  */
object Measure {

  /** Seconds of one codec pass: `kernel` is the measured CPU time or the
    * modelled on-card time; `endToEnd` adds a GPU codec's PCIe copies.
    */
  final case class Timing(kernel: Double, endToEnd: Double)

  /** The result of one run of `f` and its wall seconds. */
  def once[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** The warm-up run's result and the fastest of `iters` timed runs. */
  def best[A](iters: Int)(f: => A): (A, Double) = {
    require(iters >= 1, s"iters must be at least 1, got $iters")
    val a = f
    (a, Iterator.fill(iters)(once(f)._2).min)
  }

  /** Time one pass of `codec`. `onCard` gives, for a GPU codec, the pass's
    * work and the bytes it copies to and from the card.
    */
  def codec[A](codec: Codec, iters: Int)(run: => A)(onCard: A => (WorkProfile, Long, Long)): (A, Timing) = {
    require(iters >= 1, s"iters must be at least 1, got $iters")
    if (codec.platform == "GPU") {
      val a = run
      val (work, in, out) = onCard(a)
      (a, Timing(GpuModel.kernelSeconds(work), GpuModel.endToEndSeconds(work, in, out)))
    } else {
      val (a, s) = best(iters)(run)
      (a, Timing(s, s))
    }
  }

  /** One round trip's sizes and per-direction timings, summed over its parts. */
  final case class Roundtrip(origBytes: Long, compBytes: Long, comp: Timing, decomp: Timing) {
    def cr: Double     = origBytes.toDouble / compBytes
    def ctGBps: Double = origBytes.toDouble / comp.kernel / 1e9
    def dtGBps: Double = origBytes.toDouble / decomp.kernel / 1e9
  }

  /** Compress every part, then decompress every result, each direction timed
    * by [[codec]]. Outside the timed runs, every part is checked bit for bit:
    * an `IllegalStateException` names the codec and the first part that differs. */
  def roundtrip(codec: Codec, parts: Seq[FpBlock], iters: Int): Roundtrip = {
    def total(ws: Seq[WorkProfile]) = ws.foldLeft(WorkProfile.zero)(_ + _)
    val origBytes = parts.map(_.sizeBytes).sum
    val (comps, ct) = Measure.codec(codec, iters)(parts.map(codec.compress))(
      cs => (total(cs.map(_.work)), origBytes, cs.map(_.bytes.length.toLong).sum))
    val compBytes = comps.map(_.bytes.length.toLong).sum
    val (decs, dt) = Measure.codec(codec, iters)(
      comps.lazyZip(parts).map((c, p) => codec.decompress(c.bytes, p.precision, p.extent)))(
      ds => (total(ds.map(_.work)), compBytes, origBytes))
    check(codec, decs.map(_.block), parts)
    Roundtrip(origBytes, compBytes, ct, dt)
  }

  /** The compression ratio of `block` from one untimed compress, checked
    * bit for bit by one decompress as [[roundtrip]] checks its parts.
    */
  def cr(codec: Codec, block: FpBlock): Double = {
    val bytes = codec.compress(block).bytes
    check(codec, Seq(codec.decompress(bytes, block.precision, block.extent).block), Seq(block))
    block.sizeBytes.toDouble / bytes.length
  }

  /** Raise `IllegalStateException`, naming `codec` and the first part that
    * differs, unless every decoded part equals its input.
    */
  private def check(codec: Codec, decoded: Seq[FpBlock], parts: Seq[FpBlock]): Unit = {
    // Arrays.equals: `sameElements` would box every value it compares.
    val bad = decoded.iterator.zip(parts).indexWhere { case (d, p) => !java.util.Arrays.equals(d.bits, p.bits) }
    if (bad >= 0) throw new IllegalStateException(s"${codec.name} did not round-trip part $bad")
  }
}
