package repro.codecs

import repro.{PropSupport, SparkSpec}

class SpdpSpec extends SparkSpec with PropSupport {

  test("property: encode and decode match the three-pass oracle for both precisions and any value count") {
    checkProp(StreamOracles.property(Seq(StreamOracles.SpdpPair)), minTests = 150)
  }
}
