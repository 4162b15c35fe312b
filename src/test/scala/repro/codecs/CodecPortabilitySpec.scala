package repro.codecs

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import repro.SparkSpec
import repro.core.{Codec, CodecRegistry}
import repro.codecs.cpu.Pfpc

/** A codec or a stream moved to another configuration still works: Spark
  * ships codecs to executors by Java serialization, and a pFPC stream decodes
  * at any thread count.
  */
class CodecPortabilitySpec extends SparkSpec {

  private val block = TestInputs.smooth1dD(5000)

  private def serialRoundtrip(codec: Codec): Codec = {
    val bytes = new ByteArrayOutputStream()
    val out   = new ObjectOutputStream(bytes)
    out.writeObject(codec)
    out.close()
    new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[Codec]
  }

  for (codec <- CodecRegistry.all)
    test(s"${codec.name} survives Java serialization after use and still roundtrips") {
      val before = codec.compress(block).bytes
      codec.decompress(before, block.precision, block.extent)
      val copy = serialRoundtrip(codec)
      assert(copy.name == codec.name)
      val comp = copy.compress(block)
      assert(comp.bytes.sameElements(before))
      val back = copy.decompress(comp.bytes, block.precision, block.extent).block
      assert(back.bits.sameElements(block.bits))
    }

  for (written <- Seq(1, 4, 8); read <- Seq(1, 4, 8))
    test(s"a pFPC stream written at $written threads decodes at $read threads") {
      val bytes = new Pfpc(written).compress(block).bytes
      val back  = new Pfpc(read).decompress(bytes, block.precision, block.extent).block
      assert(back.bits.sameElements(block.bits))
    }

  test("pFPC rejects a chunk count outside 1..max(1, words)") {
    val tiny  = TestInputs.smooth1dD(3)
    val bytes = new Pfpc(1).compress(tiny).bytes
    for (count <- Seq(0, 4, -1)) {
      val bad = bytes.clone()
      java.nio.ByteBuffer.wrap(bad).order(java.nio.ByteOrder.LITTLE_ENDIAN).putInt(0, count)
      intercept[IllegalArgumentException](new Pfpc(1).decompress(bad, tiny.precision, tiny.extent))
    }
  }
}
