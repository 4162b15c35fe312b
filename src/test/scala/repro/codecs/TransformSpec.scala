package repro.codecs

import repro.SparkSpec
import repro.core.{BitTranspose, Frame, FpBlock, Precision}
import repro.codecs.cpu.NdzipCore

/** Inverse-pair tests for the internal transforms the codecs are built on. */
class TransformSpec extends SparkSpec {

  private def transposed(in: Array[Long], w: Int): Array[Long] = {
    val a = in.clone()
    BitTranspose.square(a, 0, w)
    a
  }

  test("ndzip bit transpose is self-inverse (64-bit)") {
    val rng = new scala.util.Random(1)
    val in  = Array.fill(64)(rng.nextLong())
    val out = transposed(transposed(in, 64), 64)
    assert(out.sameElements(in))
  }

  test("ndzip bit transpose is self-inverse (32-bit)") {
    val rng = new scala.util.Random(2)
    val in  = Array.fill(32)(rng.nextLong() & 0xffffffffL)
    val out = transposed(transposed(in, 32), 32)
    assert(out.sameElements(in))
  }

  test("ndzip bit transpose moves bit (i,j) to (j,i)") {
    val in = new Array[Long](64)
    in(5) = 1L << 17
    val t = transposed(in, 64)
    assert(t(17) == (1L << 5))
    assert(t.count(_ != 0) == 1)
  }

  for (dims <- 1 to 3) {
    test(s"integer Lorenzo transform inverts in ${dims}D (64-bit)") {
      val rng  = new scala.util.Random(dims)
      val side = NdzipCore.sideFor(dims)
      val a    = Array.fill(NdzipCore.BlockElems)(rng.nextLong())
      val orig = a.clone()
      NdzipCore.forwardLorenzo(a, dims, side, 64)
      assert(!a.sameElements(orig), "transform must change the data")
      NdzipCore.inverseLorenzo(a, dims, side, 64)
      assert(a.sameElements(orig))
    }

    test(s"integer Lorenzo transform inverts in ${dims}D (32-bit)") {
      val rng  = new scala.util.Random(dims + 10)
      val side = NdzipCore.sideFor(dims)
      val a    = Array.fill(NdzipCore.BlockElems)(rng.nextLong() & 0xffffffffL)
      val orig = a.clone()
      NdzipCore.forwardLorenzo(a, dims, side, 32)
      NdzipCore.inverseLorenzo(a, dims, side, 32)
      assert(a.sameElements(orig))
    }
  }

  test("Lorenzo transform of a constant block is near-zero") {
    val a = Array.fill(NdzipCore.BlockElems)(0x4045000000000000L) // 42.0
    NdzipCore.forwardLorenzo(a, 3, 16, 64)
    // Only the very first element keeps the constant; all others become 0.
    assert(a(0) == 0x4045000000000000L)
    assert(a.drop(1).forall(_ == 0L))
  }

  test("ndzip block roundtrip via compress/decompressBlock") {
    val rng  = new scala.util.Random(9)
    val tile = FpBlock(Precision.Double, Seq(16L, 16L, 16L), Array.fill(NdzipCore.BlockElems)(rng.nextLong()))
    val enc  = NdzipCore.compress(tile, 1).bytes
    val offs = Frame.read(enc, 1, 1)
    assert(offs(1) == enc.length, "a whole 16x16x16 tile leaves no border")
    val (out, used) = NdzipCore.decompressBlock(enc, offs(0), 3, 64)
    assert(used == offs(1) - offs(0))
    assert(out.sameElements(tile.bits))
    assert(NdzipCore.decompress(enc, Precision.Double, tile.extent, 1).block.bits.sameElements(tile.bits))
  }

  test("ndzip tiles the true extent: aligned 3D cube beats misaligned flat scan") {
    // a 32x32x32 smooth field: proper tiling must compress clearly better
    // than treating the same values as a 1-D stream of 4096-blocks
    val n = 32 * 32 * 32
    val vals = Array.tabulate(n) { i =>
      val z = i / 1024; val y = (i / 32) % 32; val x = i % 32
      (math.sin(z * 0.2) + math.sin(y * 0.21) + math.sin(x * 0.19)).toFloat
    }
    val codec = new repro.codecs.cpu.NdzipCpu(1)
    val md = codec.compress(repro.core.FpBlock.fromFloats(vals, Seq(32L, 32L, 32L)))
    val od = codec.compress(repro.core.FpBlock.fromFloats(vals))
    assert(md.bytes.length <= od.bytes.length * 1.02,
           s"3d=${md.bytes.length} 1d=${od.bytes.length}")
  }

  test("BUFF raw-mode fallback on unbounded-precision data") {
    val buff  = new repro.codecs.cpu.Buff
    val block = TestInputs.randomD(500)
    val comp  = buff.compress(block)
    // raw mode: 1 flag byte + payload
    assert(comp.bytes.length == block.sizeBytes + 1)
    assert(comp.bytes(0) == 0)
  }

  test("BUFF packs 2-decimal data far below raw size") {
    val buff  = new repro.codecs.cpu.Buff
    val block = TestInputs.quantizedD(4000, 2)
    val comp  = buff.compress(block)
    assert(comp.bytes(0) == 1)
    assert(comp.bytes.length < block.sizeBytes / 2)
  }

  test("pFPC thread counts produce identical decompressed data") {
    val block = TestInputs.smooth1dD(10000)
    for (t <- Seq(1, 2, 4, 8)) {
      val codec = new repro.codecs.cpu.Pfpc(t)
      val comp  = codec.compress(block)
      val dec   = codec.decompress(comp.bytes, block.precision, block.extent)
      assert(dec.block.bits.sameElements(block.bits), s"threads=$t")
    }
  }

  test("fpzip uses dimensionality: 3D extent compresses a 3D field better than 1D") {
    val fpzip = new repro.codecs.cpu.Fpzip
    val b3    = TestInputs.smooth3dS(16, 16, 16)
    val b1    = b3.as1d
    val c3    = fpzip.compress(b3).bytes.length
    val c1    = fpzip.compress(b1).bytes.length
    assert(c3 <= c1 * 1.05, s"3d=$c3 1d=$c1")
  }

  test("decompress rejects wrong extent (pFPC chunk mismatch)") {
    val codec = new repro.codecs.cpu.Pfpc(4)
    val block = TestInputs.smooth1dD(5000)
    val comp  = codec.compress(block)
    // an extent of 2 values forces fewer chunks than were written
    intercept[Exception] {
      codec.decompress(comp.bytes, Precision.Double, Seq(2L))
    }
  }
}
