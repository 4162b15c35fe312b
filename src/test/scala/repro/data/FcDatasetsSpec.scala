package repro.data

import repro.SparkSpec
import repro.core.{FpBlock, Precision}

class FcDatasetsSpec extends SparkSpec {

  test("corpus has the paper's 33 datasets") {
    assert(FcDatasets.all.size == 33)
  }

  test("domain split matches Table 3 (10 HPC, 8 TS, 8 OBS, 7 DB)") {
    val byDomain = FcDatasets.all.groupBy(_.domain).view.mapValues(_.size).toMap
    assert(byDomain == Map("HPC" -> 10, "TS" -> 8, "OBS" -> 8, "DB" -> 7))
  }

  test("precision tags match Table 3") {
    val fromPaper = Map(
      "msg-bt" -> "D", "num-brain" -> "D", "num-control" -> "D", "rsim" -> "S",
      "astro-mhd" -> "D", "astro-pt" -> "D", "miranda3d" -> "S", "turbulence" -> "S",
      "wave" -> "S", "hurricane" -> "S", "citytemp" -> "S", "ts-gas" -> "S",
      "phone-gyro" -> "D", "wesad-chest" -> "D", "jane-street" -> "D", "nyc-taxi" -> "D",
      "gas-price" -> "D", "solar-wind" -> "S", "acs-wht" -> "S", "hdr-night" -> "S",
      "hdr-palermo" -> "S", "hst-wfc3-uvis" -> "S", "hst-wfc3-ir" -> "S",
      "spitzer-irac" -> "S", "g24-78-usb" -> "S", "jws-mirimage" -> "S",
      "tpcH-order" -> "D", "tpcxBB-store" -> "D", "tpcxBB-web" -> "D",
      "tpcH-lineitem" -> "S", "tpcDS-catalog" -> "S", "tpcDS-store" -> "S",
      "tpcDS-web" -> "S")
    FcDatasets.all.foreach(s => assert(s.precision.tag == fromPaper(s.name), s.name))
  }

  test("dimensionalities match Table 3") {
    val dims = Map(
      "msg-bt" -> 1, "num-brain" -> 1, "num-control" -> 1, "rsim" -> 2,
      "astro-mhd" -> 3, "astro-pt" -> 3, "miranda3d" -> 3, "turbulence" -> 3,
      "wave" -> 3, "hurricane" -> 3, "citytemp" -> 1, "ts-gas" -> 1,
      "phone-gyro" -> 2, "wesad-chest" -> 2, "jane-street" -> 2, "nyc-taxi" -> 2,
      "gas-price" -> 2, "solar-wind" -> 2, "acs-wht" -> 2, "hdr-night" -> 2,
      "hdr-palermo" -> 2, "hst-wfc3-uvis" -> 2, "hst-wfc3-ir" -> 2,
      "spitzer-irac" -> 2, "g24-78-usb" -> 3, "jws-mirimage" -> 3,
      "tpcH-order" -> 1, "tpcxBB-store" -> 2, "tpcxBB-web" -> 2,
      "tpcH-lineitem" -> 2, "tpcDS-catalog" -> 2, "tpcDS-store" -> 2,
      "tpcDS-web" -> 2)
    FcDatasets.all.foreach(s => assert(s.ndims == dims(s.name), s.name))
  }

  for (spec <- FcDatasets.all) {
    test(s"${spec.name}: block materializes with a consistent extent") {
      val block = spec.block(spark, 4000)
      assert(block.extent.product == block.bits.length.toLong)
      assert(block.extent.size == spec.ndims)
      assert(block.n > 500, s"too few values: ${block.n}")
      val finite = block.toDoubles.count(v => !v.isNaN && !v.isInfinite)
      assert(finite == block.n, "generators must not produce NaN/Inf")
      // `block` collects without sorting: the generator's rows must come in idx order.
      val sorted = spec.dataFrame(spark, block.extent).orderBy("idx").select("value").collect()
        .map(_.getDouble(0))
      val oracle = spec.precision match {
        case Precision.Double => FpBlock.fromDoubles(sorted, block.extent)
        case Precision.Single => FpBlock.fromFloats(sorted.map(_.toFloat), block.extent)
      }
      assert(java.util.Arrays.equals(block.bits, oracle.bits), "block is not in idx order")
    }
  }

  test("generation is deterministic") {
    val a = FcDatasets.byName("citytemp").block(spark, 3000)
    val b = FcDatasets.byName("citytemp").block(spark, 3000)
    assert(a.bits.sameElements(b.bits))
  }

  test("a single-precision block holds its DataFrame's values narrowed to float") {
    val spec  = FcDatasets.byName("citytemp")
    val block = spec.block(spark, 3000)
    val vals  = spec.dataFrame(spark, block.extent).orderBy("idx").select("value").collect()
      .map(_.getDouble(0))
    // The Array.map form `block` used before its narrowing became a loop.
    val oracle = vals.map(_.toFloat).map(f => java.lang.Float.floatToRawIntBits(f).toLong & 0xffffffffL)
    assert(block.precision == Precision.Single && block.bits.sameElements(oracle))
  }

  test("astro-mhd is mostly exact zeros (the low-entropy outlier)") {
    val block = FcDatasets.byName("astro-mhd").block(spark, 8000)
    val zeros = block.bits.count(_ == 0L)
    assert(zeros > block.n * 0.8, s"zeros=$zeros of ${block.n}")
  }

  test("jane-street is full-precision noise (the high-entropy dataset)") {
    val block = FcDatasets.byName("jane-street").block(spark, 8000)
    // nearly all mantissa bit patterns distinct
    assert(block.bits.distinct.length > block.n * 0.99)
  }

  test("gas-price repeats values within a channel (dictionary-friendly)") {
    val block = FcDatasets.byName("gas-price").block(spark, 6000)
    val v     = block.bits
    val cols  = block.extent.last.toInt
    // within-channel (stride = cols) repeats dominate; adjacent flat values
    // differ because channels interleave
    val repeats = (cols until v.length).count(i => v(i) == v(i - cols))
    assert(repeats > v.length / 6, s"repeats=$repeats of ${v.length}")
  }

  test("TS/DB decimal datasets are bounded precision (BUFF-packable)") {
    val buff = new repro.codecs.cpu.Buff
    for (name <- Seq("citytemp", "nyc-taxi", "gas-price", "tpcH-order")) {
      val block = FcDatasets.byName(name).block(spark, 3000)
      val comp  = buff.compress(block)
      assert(comp.bytes(0) == 1, s"$name should pack, fell back to raw")
    }
  }

  test("tpcH-order uses the SynthData orders generator") {
    val spec  = FcDatasets.byName("tpcH-order")
    val df    = spec.dataFrame(spark, Seq(1000L))
    assert(df.count() == 1000)
    val vals = df.orderBy("idx").collect().map(_.getDouble(1))
    // o_totalprice range per SynthData: [1000, 501000]
    assert(vals.forall(v => v >= 1000 && v <= 501000))
  }

  test("tpcH-lineitem interleaves 4 numeric columns") {
    val spec = FcDatasets.byName("tpcH-lineitem")
    val ext  = spec.extentFor(1000)
    assert(ext.last == 4)
    val df = spec.dataFrame(spark, ext)
    assert(df.count() == ext.product)
    assert(df.select("idx").collect().map(_.getLong(0)).toSeq == (0L until ext.product))
  }

  test("extentFor respects tabular column counts") {
    val js = FcDatasets.byName("jane-street")
    assert(js.extentFor(100000).last == 136L)
    val cube = FcDatasets.byName("wave")
    val e    = cube.extentFor(30000)
    assert(e.size == 3 && e.distinct.size == 1)
  }

  test("byName rejects unknown datasets") {
    intercept[IllegalArgumentException](FcDatasets.byName("nope"))
  }

  test("single-precision blocks carry 32-bit patterns") {
    val b = FcDatasets.byName("citytemp").block(spark, 2000)
    assert(b.precision == Precision.Single)
    assert(b.bits.forall(x => (x & 0xffffffff00000000L) == 0))
  }
}
