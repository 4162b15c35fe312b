package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.CodecRegistry

class NamesSpec extends AnyFunSuite {
  /** A metric name: a letter or digit, then at most 63 of `[A-Za-z0-9_.-]`. */
  private val Valid = "[A-Za-z0-9][A-Za-z0-9_.-]{0,63}".r

  test("all 14 registry codecs map to unique, valid metric names") {
    val names = CodecRegistry.all.map(c => Names.metricSafe(c.name))
    assert(names.size == 14)
    assert(names.distinct.size == names.size, names)
    names.foreach(n => assert(Valid.matches(n), n))
    // the longest metric built from a codec name stays valid
    names.foreach(n => assert(Valid.matches(s"codec.$n.decomp_ms"), n))
  }

  test("names keep their letters and replace the rest") {
    assert(Names.metricSafe("shf+LZ4") == "shf_lz4")
    assert(Names.metricSafe("nv:btcomp") == "nv_btcomp")
    assert(Names.metricSafe("ndzip-C") == "ndzip-c")
    assert(Names.metricSafe("pFPC") == "pfpc")
  }
}
