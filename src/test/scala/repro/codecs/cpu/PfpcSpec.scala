package repro.codecs.cpu

import repro.{PropSupport, SparkSpec}
import repro.codecs.StreamOracles
import repro.codecs.StreamOracles.pfpc
import repro.core.{FpBlock, Precision}

/** pFPC's word-at-a-time coder against the byte-wise one kept in
  * [[BytewisePfpc]]: equal streams, and each stream decodes to its input.
  */
class PfpcSpec extends SparkSpec with PropSupport {

  test("property: the stream equals the byte-wise oracle's and decodes, both precisions, 1-4 threads") {
    checkProp(StreamOracles.property(StreamOracles.PfpcPairs), minTests = 150)
  }

  test("all-zero residuals, a whole block of them, match the oracle and decode") {
    for (n <- Seq(1, 2, 3, 8, 9, 513); threads <- Seq(1, 3); v <- Seq(0.0, 2.5))
      pfpc(threads).failure(FpBlock.fromDoubles(Array.fill(n)(v))).foreach(f => fail(s"n=$n threads=$threads v=$v: $f"))
  }

  test("a stream whose last residuals end within its last 8 bytes matches the oracle and decodes") {
    // The last value repeats (an all-zero residual), steps by one (one
    // residual byte) or is random (eight), after a run the tables learn.
    for (last <- Seq(7L, 8L, 0x1234567890abcdefL); n <- Seq(64, 65)) {
      val bits = Array.tabulate(n)(i => if (i == n - 1) last else (i % 8).toLong)
      pfpc(1).failure(FpBlock(Precision.Double, Seq(n.toLong), bits)).foreach(f => fail(s"last=$last n=$n: $f"))
    }
  }
}
