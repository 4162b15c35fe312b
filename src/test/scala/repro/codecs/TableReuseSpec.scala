package repro.codecs

import java.util.concurrent.{ConcurrentLinkedQueue, CyclicBarrier}

import repro.SparkSpec
import repro.core.{Codec, FpBlock}
import repro.codecs.cpu.{Chimp, Pfpc, Spdp}

/** pFPC, LZa6 (SPDP) and Chimp reuse per-thread tables across calls. These
  * tests check that a decode that fails midway cannot leak table state into
  * a later call, and that concurrent callers of one codec instance never
  * share a table.
  */
class TableReuseSpec extends SparkSpec {
  import TableCodecGoldenSpec.{crc32, Pinned}

  private val page = TestInputs.smooth1dD(512)

  for ((codec, column) <- Seq(new Pfpc(1) -> 0, new Pfpc(4) -> 1))
    test(s"pFPC(${codec.threads}): after a truncated stream throws, later calls still write the pinned bytes") {
      val bytes = codec.compress(page).bytes
      val truncated = bytes.take(bytes.length * 3 / 4)
      intercept[Exception](codec.decompress(truncated, page.precision, page.extent))
      assert(crc32(codec.compress(page).bytes) == Pinned("page-512-double")(column))
      val back = codec.decompress(bytes, page.precision, page.extent).block
      assert(back.bits.sameElements(page.bits))
      assert(crc32(codec.compress(page).bytes) == Pinned("page-512-double")(column))
    }

  private val blocks: Seq[FpBlock] = Seq(
    TestInputs.smooth1dD(512), TestInputs.runsS(1024), TestInputs.randomD(4099),
    TestInputs.smooth1dD(70000))

  for (codec <- Seq[Codec](new Pfpc(1), new Spdp, new Chimp))
    test(s"${codec.name}: four threads sharing one instance write the serial bytes") {
      val serial  = blocks.map(b => codec.compress(b).bytes)
      val rounds  = 20
      val barrier = new CyclicBarrier(blocks.size)
      val errors  = new ConcurrentLinkedQueue[String]()
      val threads = blocks.indices.map { t =>
        new Thread(() => try {
          barrier.await()
          var r = 0
          while (r < rounds) {
            val block = blocks(t)
            val bytes = codec.compress(block).bytes
            if (!bytes.sameElements(serial(t))) errors.add(s"thread $t round $r: stream differs")
            val back = codec.decompress(bytes, block.precision, block.extent).block
            if (!back.bits.sameElements(block.bits)) errors.add(s"thread $t round $r: roundtrip differs")
            r += 1
          }
        } catch { case e: Throwable => errors.add(s"thread $t: $e") })
      }
      threads.foreach(_.start())
      threads.foreach(_.join())
      assert(errors.isEmpty, errors.toArray.mkString("; "))
    }
}
