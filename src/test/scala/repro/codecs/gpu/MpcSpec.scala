package repro.codecs.gpu

import repro.{PropSupport, SparkSpec}
import repro.codecs.CodecGen
import repro.codecs.CodecGen.Drawn
import org.scalacheck.Prop

/** MPC codes its stream into one array sized for the worst case,
  * `(w + 1) · ⌈n / w⌉ · bytes`. Random bit patterns with every word
  * non-zero come closest to it. The property runs on a new thread, whose
  * scratch arrays are no larger than its own calls asked for, so a bound
  * that is too small overruns the array instead of a longer kept one.
  */
class MpcSpec extends SparkSpec with PropSupport {
  private val mpc = new Mpc

  /** Why `d`'s stream passes the bound or does not decode bit-exactly, or None. */
  private def failure(d: Drawn): Option[String] = {
    val (n, p) = (d.block.n, d.precision)
    val bound  = (p.bits + 1L) * ((n + p.bits - 1) / p.bits) * p.bytes
    val length = mpc.compress(d.block).bytes.length
    if (length > bound) Some(s"$length bytes > $bound") else CodecGen.roundTrip(mpc, d.block)
  }

  test("property: an all-non-zero stream fits (w + 1) · ⌈n / w⌉ words and decodes bit-exactly") {
    onFreshThread {
      for (d <- CodecGen.chunkEdgeExamples) failure(d).foreach(f => fail(s"$d: $f"))
      checkProp(Prop.forAllNoShrink(CodecGen.drawn.map(_.copy(process = "non-zero", specials = 0))) { d =>
        val f = failure(d)
        Prop.propBoolean(f.isEmpty) :| f.getOrElse("")
      }, minTests = 100)
    }
  }
}
