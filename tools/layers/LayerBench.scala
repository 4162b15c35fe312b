package repro.layers

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, File,
                FileInputStream, FileOutputStream}
import java.net.URLClassLoader

/** The JVM side of `tools/bench_layers.py`: per-codec timings of several
  * builds of the program in one JVM. It touches the program only through
  * reflection, so it compiles against the Scala library alone and runs
  * against any build that has `repro.core`'s codec API.
  *
  *   - `dump <file> <work-dir> <workload>...`, on one build's full class
  *     path (program, perfbench and Spark): generate each perfbench
  *     workload's corpus exactly as perfbench does and write its blocks and
  *     codec names to `<file>`.
  *   - `run <corpus> <rounds> <warm-up rounds> <codecs|-> <name>=<class path>...`,
  *     with the dependency jars (Scala, lz4-java, zstd-jni, ...) on the class
  *     path: load each named build in its own class loader over that one
  *     shared parent, so every build has its own copy of every program class
  *     and all share one copy of every dependency (zstd-jni's native library
  *     binds to one loader only). Each round runs, for every workload and
  *     codec, each build in turn: all the workload's blocks compressed, then
  *     all decompressed and checked bit for bit. The builds' order rotates
  *     from round to round. One line per (round, workload, codec, build):
  *     `T <round> <workload> <codec> <build> <compress ns> <decompress ns>`;
  *     and once per codec and build, `S <workload> <codec> <build> same|differ`:
  *     whether its streams equal the first build's byte for byte.
  */
object LayerBench {
  def main(args: Array[String]): Unit = args.toList match {
    case "dump" :: file :: workDir :: workloads => dump(new File(file), new File(workDir), workloads)
    case "run" :: corpus :: rounds :: warmUp :: codecs :: builds =>
      run(new File(corpus), rounds.toInt, warmUp.toInt,
          if (codecs == "-") None else Some(codecs.split(',').toSet),
          builds.map { b => val Array(name, path) = b.split("=", 2); new Build(name, path) })
    case _ => sys.error("usage: dump <file> <work-dir> <workload>... | run <corpus> <rounds> <warm-up> <codecs|-> <name>=<class path>...")
  }

  private def module(loader: ClassLoader, cls: String): AnyRef =
    loader.loadClass(cls + "$").getField("MODULE$").get(null)

  /** Calls the public method `name` of `target`'s class that takes `args`. */
  private def call(target: AnyRef, name: String, args: AnyRef*): AnyRef =
    target.getClass.getMethods.find(m => m.getName == name && m.getParameterCount == args.length)
      .getOrElse(sys.error(s"no method $name/${args.length} on ${target.getClass.getName}"))
      .invoke(target, args: _*)

  /** One input block of a workload: its precision (32 or 64 bits), extent and bits. */
  final case class Input(precisionBits: Int, extent: Seq[Long], bits: Array[Long])

  final case class Workload(name: String, codecs: Seq[String], units: IndexedSeq[Input])

  private def dump(file: File, workDir: File, workloads: Seq[String]): Unit = {
    val loader = getClass.getClassLoader
    val spark  = call(module(loader, "repro.perfbench.Main"), "session",
                      Int.box(math.min(4, Runtime.getRuntime.availableProcessors)), workDir)
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(file)))
    try {
      out.writeInt(workloads.size)
      for (w <- workloads) {
        val workload = call(module(loader, "repro.perfbench.Workload"), "byName", w)
        call(workload, "generate", spark)
        val codecs = call(workload, "codecNames").asInstanceOf[Seq[String]]
        val units  = call(workload, "units").asInstanceOf[Seq[AnyRef]]
        out.writeUTF(w)
        out.writeInt(codecs.size)
        codecs.foreach(out.writeUTF)
        out.writeInt(units.size)
        for (u <- units) {
          val extent = call(u, "extent").asInstanceOf[Seq[Long]]
          val bits   = call(u, "bits").asInstanceOf[Array[Long]]
          out.writeInt(call(call(u, "precision"), "bits").asInstanceOf[Int])
          out.writeInt(extent.size)
          extent.foreach(out.writeLong)
          out.writeInt(bits.length)
          bits.foreach(out.writeLong)
        }
      }
    } finally {
      out.close()
      call(spark, "stop")
    }
  }

  private def read(file: File): Seq[Workload] = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(file)))
    try Seq.fill(in.readInt()) {
      val name   = in.readUTF()
      val codecs = Seq.fill(in.readInt())(in.readUTF())
      val units  = Vector.fill(in.readInt()) {
        val precision = in.readInt()
        val extent    = Seq.fill(in.readInt())(in.readLong())
        Input(precision, extent, Array.fill(in.readInt())(in.readLong()))
      }
      Workload(name, codecs, units)
    } finally in.close()
  }

  /** One build of the program, its class directories on `classPath`, in its
    * own class loader.
    */
  final class Build(val name: String, classPath: String) {
    private val loader = new URLClassLoader(classPath.split(File.pathSeparator).map(new File(_).toURI.toURL),
                                            getClass.getClassLoader)
    private def cls(n: String) = loader.loadClass(n)

    private val fpBlock    = module(loader, "repro.core.FpBlock")
    private val newBlock   = fpBlock.getClass.getMethod("apply", cls("repro.core.Precision"),
                                                        classOf[Seq[_]], classOf[Array[Long]])
    private val compressM  = cls("repro.core.Codec").getMethod("compress", cls("repro.core.FpBlock"))
    private val decompressM = cls("repro.core.Codec").getMethod("decompress", classOf[Array[Byte]],
                                                              cls("repro.core.Precision"), classOf[Seq[_]])
    private val bytesM     = cls("repro.core.Compressed").getMethod("bytes")
    private val blockM     = cls("repro.core.Decompressed").getMethod("block")
    private val bitsM      = cls("repro.core.FpBlock").getMethod("bits")
    private val threaded   = cls("repro.core.ThreadedCodec")

    private def precision(bits: Int): AnyRef =
      module(loader, if (bits == 32) "repro.core.Precision$Single" else "repro.core.Precision$Double")

    /** A workload's codec as perfbench runs it: a threaded codec at one thread. */
    def codec(codecName: String): AnyRef = {
      val c = call(module(loader, "repro.core.CodecRegistry"), "byName", codecName)
      if (threaded.isInstance(c)) call(c, "withThreads", Int.box(1)) else c
    }

    /** `units` as this build's blocks, with their precisions, extents and bits. */
    final class Blocks(units: IndexedSeq[Input]) {
      val precisions: Array[AnyRef] = units.map(u => precision(u.precisionBits)).toArray
      val extents: Array[AnyRef]    = units.map(_.extent).toArray
      val bits: Array[Array[Long]]  = units.map(_.bits).toArray
      val blocks: Array[AnyRef]     = units.indices.map(i => newBlock.invoke(fpBlock, precisions(i), extents(i), bits(i))).toArray
    }

    /** Compress every block, then decompress every stream, into `streams`;
      * the two times in ns. Throws if a block does not come back bit for bit.
      */
    def time(codec: AnyRef, in: Build#Blocks, streams: Array[Array[Byte]]): (Long, Long) = {
      val blocks = in.blocks
      val n      = blocks.length
      val t0 = System.nanoTime()
      var i = 0
      while (i < n) { streams(i) = bytesM.invoke(compressM.invoke(codec, blocks(i))).asInstanceOf[Array[Byte]]; i += 1 }
      val t1 = System.nanoTime()
      val decoded = new Array[Array[Long]](n)
      i = 0
      while (i < n) {
        decoded(i) = bitsM.invoke(blockM.invoke(decompressM.invoke(codec, streams(i), in.precisions(i),
                                                                    in.extents(i)))).asInstanceOf[Array[Long]]
        i += 1
      }
      val t2 = System.nanoTime()
      i = 0
      while (i < n) {
        if (!java.util.Arrays.equals(decoded(i), in.bits(i)))
          sys.error(s"$name: block $i does not round-trip through ${call(codec, "name")}")
        i += 1
      }
      (t1 - t0, t2 - t1)
    }
  }

  private def run(corpus: File, rounds: Int, warmUp: Int, only: Option[Set[String]],
                  builds: Seq[Build]): Unit = {
    val workloads = read(corpus)
    // per workload and codec, each build's codec instance and blocks
    val cases = for {
      w <- workloads
      c <- w.codecs if only.forall(_.contains(c))
    } yield (w, c, builds.map(b => (b.codec(c), new b.Blocks(w.units): Build#Blocks)))
    for (round <- -warmUp until rounds) {
      val k = math.floorMod(round, builds.size)
      val order = builds.indices.map(i => (i + k) % builds.size)
      for ((w, c, sides) <- cases) {
        val streams = builds.map(_ => new Array[Array[Byte]](w.units.size))
        for (s <- order) {
          val b = builds(s)
          val (codec, blocks) = sides(s)
          val (comp, decomp) = b.time(codec, blocks, streams(s))
          if (round >= 0) println(s"T $round ${w.name} $c ${b.name} $comp $decomp")
        }
        if (round == 0) for (s <- builds.indices) {
          val same = streams(s).indices.forall(i => java.util.Arrays.equals(streams(s)(i), streams(0)(i)))
          println(s"S ${w.name} $c ${builds(s).name} ${if (same) "same" else "differ"}")
        }
      }
    }
  }
}
