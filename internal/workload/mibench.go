package workload

import "cacheuniformity/internal/trace"

// The MiBench-flavoured generators (paper Figures 1, 4, 6, 7, 9-14).
// Parameter choices are annotated with the behaviour they model.

// adpcmRun models the adpcm speech codec: two long streaming buffers and a
// tiny quantiser state.  The working set per iteration is a handful of
// blocks, so the baseline direct-mapped cache already hits almost always —
// the paper's Figure 4 shows 0% change for every indexing scheme.
func adpcmRun(g *gen) {
	const chunk = 2048
	for pos := 0; !g.full(); pos += chunk {
		in := uint64(DataBase) + uint64(pos)
		out := uint64(DataBase+0x0200_0000) + uint64(pos/4)
		for i := 0; i < chunk && !g.full(); i++ {
			g.emit(in+uint64(i), trace.Read)        // sample byte
			g.emit(uint64(TextBase)+16, trace.Read) // step-size table (hot)
			g.emit(uint64(TextBase)+48, trace.Read) // index table (hot)
			if i%4 == 3 {
				g.emit(out+uint64(i/4), trace.Write) // packed nibble out
			}
		}
	}
}

// basicMathRun models basicmath's small numeric kernels: a few small arrays
// recomputed in tight loops plus call-heavy stack traffic, with two arrays
// whose 32 KiB-aligned bases collide in the baseline cache — the conflict
// the indexing schemes remove (Figure 4 shows large XOR/odd-multiplier
// wins).
func basicMathRun(g *gen) {
	const elems = 512 // 4 KiB of doubles
	a := uint64(DataBase)
	b := uint64(DataBase + 0x8000) // same sets as a (32 KiB apart)
	c := uint64(DataBase + 0x2000) // disjoint sets: no third conflictor
	for !g.full() {
		for i := 0; i < elems && !g.full(); i++ {
			g.emit(a+uint64(i*8), trace.Read)
			g.emit(b+uint64(i*8), trace.Read)
			g.emit(c+uint64(i*8), trace.Write)
		}
		g.stackFrames(6, 128, 4)
	}
}

// bitCountRun models bitcount: a 256-byte lookup table and a word stream.
// Nearly every access hits a handful of sets that never conflict — the
// canonical "uniform accesses, nothing to fix" benchmark (negligible gains
// for every scheme in Figures 4 and 6).
func bitCountRun(g *gen) {
	table := uint64(TextBase + 0x1000)
	counter := uint64(HeapBase)
	for w := 0; !g.full(); w++ {
		word := uint64(DataBase) + uint64(w*4)%(1<<16)
		g.emit(word, trace.Read)
		for b := 0; b < 4 && !g.full(); b++ { // table lookup per byte
			g.emit(table+uint64(g.src.Intn(256)), trace.Read)
		}
		g.emit(counter, trace.Write) // accumulate the count
	}
}

// crcRun models crc32: a 1 KiB table indexed by data bytes plus a long
// sequential buffer — uniform sweeps, few conflicts.
func crcRun(g *gen) {
	table := uint64(TextBase + 0x2000)
	crcVar := uint64(HeapBase)
	for pos := 0; !g.full(); pos++ {
		g.emit(uint64(DataBase)+uint64(pos)%(1<<20), trace.Read)
		g.emit(table+uint64(g.src.Intn(256))*4, trace.Read)
		if pos%8 == 7 {
			g.emit(crcVar, trace.Write) // running checksum spills
		}
	}
}

// dijkstraRun models dijkstra's adjacency-matrix shortest path: row scans of
// a 100×100 int matrix (non-power-of-two 400-byte pitch spreads rows over
// sets) plus distance/visited arrays updated per relaxation.
func dijkstraRun(g *gen) {
	const nodes = 100
	matrix := uint64(DataBase)
	dist := uint64(HeapBase)
	visited := uint64(HeapBase + 0x1000)
	for !g.full() {
		u := g.src.Intn(nodes)
		// find-min scan over dist[].
		for v := 0; v < nodes && !g.full(); v++ {
			g.emit(dist+uint64(v*4), trace.Read)
			g.emit(visited+uint64(v), trace.Read)
		}
		// relax row u.
		for v := 0; v < nodes && !g.full(); v++ {
			g.emit(matrix+uint64((u*nodes+v)*4), trace.Read)
			if g.src.Intn(8) == 0 {
				g.emit(dist+uint64(v*4), trace.Write)
			}
		}
		g.emit(visited+uint64(u), trace.Write)
	}
}

// fftRun models the MiBench fft kernel (fourierf.c), which keeps four
// separate power-of-two arrays — RealIn, ImagIn, RealOut, ImagOut — whose
// back-to-back mallocs land the In and Out arrays exactly one cache span
// (32 KiB) apart.  Under conventional indexing every butterfly's
// In[j]-read and Out[j]-write fight over the same set, so misses are
// almost purely conflict misses (Figure 4's biggest XOR win), while the
// hot stack frame and sin/cos twiddle table absorb the majority of
// accesses on a few sets — the spiky per-set histogram of Figure 1.
func fftRun(g *gen) {
	const points = 512 // 4 KiB per array of 8-byte floats
	const elem = 8
	realIn := uint64(DataBase)
	imagIn := uint64(DataBase + 0x1000)
	realOut := uint64(DataBase + 0x8000)  // one cache span later: same sets as realIn
	imagOut := uint64(DataBase + 0x9000)  // same sets as imagIn
	twiddle := uint64(DataBase + 0x10000) // also folds onto the low sets
	sp := uint64(StackBase - 64)          // hot frame: counters and temporaries
	for !g.full() {
		for half := 1; half < points && !g.full(); half *= 2 {
			for i := 0; i < points-half && !g.full(); i += 2 * half {
				for j := i; j < i+half && !g.full(); j++ {
					// Scalar work per butterfly lives in the hot frame.
					g.emit(sp, trace.Read)
					g.emit(sp+8, trace.Read)
					g.emit(sp+16, trace.Read)
					g.emit(sp+24, trace.Write)
					g.emit(sp+32, trace.Write)
					g.emit(sp+40, trace.Write)
					g.emit(twiddle+uint64((j%64)*elem), trace.Read)
					g.emit(twiddle+uint64((j%64)*elem+4), trace.Read)
					g.emit(realIn+uint64(j*elem), trace.Read)
					g.emit(imagIn+uint64((j+half)*elem), trace.Read)
					g.emit(realOut+uint64(j*elem), trace.Write)
					g.emit(imagOut+uint64((j+half)*elem), trace.Write)
				}
			}
		}
	}
}

// patriciaRun models the patricia trie benchmark: a pointer chase over heap
// nodes far larger than the cache, plus key-byte reads.  Misses are
// capacity/cold dominated and scattered, so remapping them mostly shuffles
// pain around — Figure 4 shows indexing schemes hurting patricia.
func patriciaRun(g *gen) {
	const nodes = 40000 // ~2.5 MiB of 64-byte nodes
	c := g.newChaser(HeapBase, nodes, 64)
	for !g.full() {
		c.walk(g, 24, true)                                           // one lookup ≈ trie depth 24
		g.emit(uint64(DataBase)+uint64(g.src.Intn(4096)), trace.Read) // key byte
		if g.src.Intn(8) == 0 {                                       // occasional insert
			g.emit(uint64(HeapBase)+uint64(g.src.Intn(nodes)*64+8), trace.Write)
		}
	}
}

// qSortRun models qsort's recursive partitioning: linear sweeps over
// shrinking subranges plus deep stack traffic.  Sequential sweeps touch
// all sets evenly — another "already uniform" benchmark where remapping
// can only do harm (Figure 4: negative for XOR/odd-multiplier).
func qSortRun(g *gen) {
	const elems = 1 << 15 // 128 KiB of 4-byte keys
	base := uint64(DataBase)
	var part func(lo, hi, depth int)
	part = func(lo, hi, depth int) {
		if g.full() || hi-lo < 16 || depth > 12 {
			return
		}
		for i := lo; i < hi && !g.full(); i++ { // partition sweep
			g.emit(base+uint64(i*4), trace.Read)
			if g.src.Intn(4) == 0 {
				g.emit(base+uint64(i*4), trace.Write)
			}
		}
		g.stackFrames(1, 96, 2)
		mid := lo + (hi-lo)/2 + g.src.Intn((hi-lo)/4+1) - (hi-lo)/8
		if mid <= lo || mid >= hi {
			mid = (lo + hi) / 2
		}
		part(lo, mid, depth+1)
		part(mid, hi, depth+1)
	}
	for !g.full() {
		part(0, elems, 0)
	}
}

// rijndaelRun models AES encryption: four 1 KiB T-tables in hot rotation
// (Zipf-weighted entries) plus streaming plaintext/ciphertext.  The tables
// occupy a fixed 4 KiB set range, concentrating hits, while the stream
// sweeps — remapping the stream into the table sets backfires for some
// schemes, as Figure 4's large negative rijndael entries show.
func rijndaelRun(g *gen) {
	t0 := uint64(TextBase + 0x4000)
	for block := 0; !g.full(); block++ {
		in := uint64(DataBase) + uint64(block*16)%(1<<20)
		out := uint64(DataBase+0x0100_0000) + uint64(block*16)%(1<<20)
		g.emit(in, trace.Read)
		for round := 0; round < 10 && !g.full(); round++ {
			for t := 0; t < 4 && !g.full(); t++ {
				entry := uint64(g.src.Intn(256) * 4)
				g.emit(t0+uint64(t)*1024+entry, trace.Read)
			}
			g.emit(uint64(HeapBase)+uint64(round*16), trace.Read) // round key
		}
		g.emit(out, trace.Write)
	}
}

// shaRun models sha1: 64-byte blocks expanded into an 80-word schedule that
// lives exactly one cache-span away from the message buffer, so schedule
// and message fight over the same sets every block — conflicts that XOR
// and odd-multiplier indexing dissolve almost entirely (Figure 4: ≈97%).
func shaRun(g *gen) {
	msg := uint64(DataBase)
	state := uint64(HeapBase)
	for block := 0; !g.full(); block++ {
		base := msg + uint64(block*64)%(1<<15)
		sched := base + 0x8000 // rolling W[16]: always the same sets as the block
		for w := 0; w < 80 && !g.full(); w++ {
			off := uint64((w % 16) * 4)
			g.emit(base+off, trace.Read)  // message word (on-the-fly expansion)
			g.emit(sched+off, trace.Read) // W[w-16 mod 16]
			g.emit(sched+off, trace.Write)
			g.emit(state+uint64((w%5)*4), trace.Write)
			g.emit(state+uint64(((w+1)%5)*4), trace.Read)
		}
	}
}

// susanRun models the susan image-smoothing benchmark: 3-row neighbourhood
// scans over a 384-pixel-pitch image (non-power-of-two, so rows spread
// evenly) plus a small brightness LUT.  Accesses are spatially regular and
// well spread — the indexing schemes neither help nor hurt much.
func susanRun(g *gen) {
	const width, height = 384, 288
	img := uint64(DataBase)
	outImg := uint64(HeapBase)
	lut := uint64(TextBase + 0x8000)
	for !g.full() {
		for r := 1; r < height-1 && !g.full(); r++ {
			for c := 1; c < width-1 && !g.full(); c += 2 {
				for dr := -1; dr <= 1 && !g.full(); dr++ {
					g.emit(img+uint64((r+dr)*width+c), trace.Read)
				}
				g.emit(lut+uint64(g.src.Intn(516)), trace.Read)
				g.emit(outImg+uint64(r*width+c), trace.Write)
			}
		}
	}
}
