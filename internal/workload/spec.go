package workload

import "cacheuniformity/internal/trace"

// SPEC CPU2006-flavoured generators for the Figure-8 hybrid experiments
// (column-associative cache with non-conventional primary indexing).

// astarRun models 473.astar: A* over a 2-D grid — a local random walk
// touching node records plus a binary-heap open list with hot top levels.
func astarRun(g *gen) {
	const dim = 512 // 512×512 grid of 8-byte node records
	grid := uint64(DataBase)
	heap := uint64(HeapBase)
	r, c := dim/2, dim/2
	for !g.full() {
		// expand current node: read 4 neighbours
		for _, d := range [4][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
			nr, nc := (r+d[0]+dim)%dim, (c+d[1]+dim)%dim
			g.emit(grid+uint64((nr*dim+nc)*8), trace.Read)
		}
		g.emit(grid+uint64((r*dim+c)*8), trace.Write) // close node
		// heap push/pop: touch a root-to-leaf path (hot near the root)
		depth := 1 + g.src.Intn(14)
		idx := 1
		for d := 0; d < depth && !g.full(); d++ {
			g.emit(heap+uint64(idx*8), trace.Read)
			idx = idx*2 + g.src.Intn(2)
		}
		g.emit(heap+8, trace.Write)
		// drift the walk
		r = (r + g.src.Intn(3) - 1 + dim) % dim
		c = (c + g.src.Intn(3) - 1 + dim) % dim
	}
}

// bzip2Run models 401.bzip2: long sequential block reads, random accesses
// into the block during suffix sorting, and small frequency tables.
func bzip2Run(g *gen) {
	const blockSize = 1 << 19 // 512 KiB working block
	block := uint64(DataBase)
	freq := uint64(HeapBase)
	for !g.full() {
		g.seq(block, 4096, 1, 0)                  // stream in
		g.gather(block, blockSize, 1, 4096, 0.25) // sort pointers jump around
		g.zipfTable(freq, 256, 4, 512, 0.6, 0.5)  // symbol frequencies
	}
}

// calculixRun models 454.calculix: FEM solver sweeps — column-major walks
// over matrices whose power-of-two leading dimension folds columns onto
// the same sets, plus sequential right-hand-side vectors.
func calculixRun(g *gen) {
	const rows, cols = 1024, 64 // 8-byte elements, pitch 512 B (pow2)
	matrix := uint64(DataBase)
	rhs := uint64(HeapBase)
	for !g.full() {
		pitch := uint64(cols * 8)
		for c := 0; c < cols && !g.full(); c++ { // column-major elimination
			for r := 0; r < rows && !g.full(); r++ {
				g.emit(matrix+uint64(r)*pitch+uint64(c*8), trace.Read)
				if r%16 == 15 {
					g.emit(rhs+uint64(r*8), trace.Write) // rhs update
				}
			}
		}
		g.seq(rhs, rows, 8, 4)
	}
}

// gromacsRun models 435.gromacs: molecular dynamics — sequential sweeps over
// position/force arrays plus neighbour-list gathers.
func gromacsRun(g *gen) {
	const atoms = 24000
	pos := uint64(DataBase)
	force := uint64(DataBase + 0x0100_0000)
	for !g.full() {
		for i := 0; i < atoms && !g.full(); i++ {
			g.emit(pos+uint64(i*12), trace.Read)
			for k := 0; k < 3 && !g.full(); k++ { // a few neighbours
				j := g.src.Intn(atoms)
				g.emit(pos+uint64(j*12), trace.Read)
			}
			g.emit(force+uint64(i*12), trace.Write)
		}
	}
}

// hmmerRun models 456.hmmer: profile HMM dynamic programming — three live DP
// rows scanned in lockstep plus Zipf-hot transition tables.
func hmmerRun(g *gen) {
	const modelLen = 2048
	dp := uint64(DataBase)
	tbl := uint64(HeapBase)
	for !g.full() {
		for i := 0; i < modelLen && !g.full(); i++ {
			g.emit(dp+uint64(i*4), trace.Read)               // M row
			g.emit(dp+uint64((modelLen+i)*4), trace.Read)    // I row
			g.emit(dp+uint64((2*modelLen+i)*4), trace.Write) // D row
			g.emit(tbl+uint64(g.src.Intn(400)*4), trace.Read)
		}
	}
}

// libquantumRun models 462.libquantum: long streaming sweeps over a large
// quantum-register vector — pure sequential traffic, uniform by nature.
func libquantumRun(g *gen) {
	const qubits = 1 << 18 // 2 MiB of 8-byte amplitudes
	reg := uint64(DataBase)
	for !g.full() {
		g.seq(reg, qubits, 8, 2) // toffoli-style read-modify-write sweep
	}
}

// mcfRun models 429.mcf: network-simplex pointer chasing over a huge arc/node
// graph — the memory-bound SPEC poster child; misses are capacity misses.
func mcfRun(g *gen) {
	const nodesN = 120000 // ~7.5 MiB of 64-byte node records
	c := g.newChaser(HeapBase, nodesN, 64)
	for !g.full() {
		c.walk(g, 200, true)
		g.seq(DataBase, 512, 32, 8) // arc array segment scan
	}
}

// milcRun models 433.milc: 4-D lattice QCD — su3 matrix sweeps with several
// power-of-two strides (the lattice dimensions), a classic conflict mix.
func milcRun(g *gen) {
	const sites = 4096 // 16^3 lattice, 72-byte su3 matrix padded to 128
	lattice := uint64(DataBase)
	for !g.full() {
		for _, stride := range []uint64{128, 128 * 16, 128 * 256} {
			g.strided(lattice, sites/4, stride%uint64(sites*128), trace.Read)
			if g.full() {
				break
			}
		}
		g.seq(lattice, 1024, 128, 3)
	}
}

// namdRun models 444.namd: molecular dynamics with larger per-atom records
// and pairwise force gathers.
func namdRun(g *gen) {
	const atoms = 50000
	rec := uint64(DataBase)
	for !g.full() {
		for i := 0; i < 2048 && !g.full(); i++ {
			a := g.src.Intn(atoms)
			b := g.src.Intn(atoms)
			g.emit(rec+uint64(a*32), trace.Read)
			g.emit(rec+uint64(b*32), trace.Read)
			g.emit(rec+uint64(a*32+16), trace.Write)
		}
	}
}

// sjengRun models 458.sjeng: chess search — a giant transposition table hit
// randomly, plus small hot board/history arrays.
func sjengRun(g *gen) {
	const ttEntries = 1 << 20 // 16 MiB transposition table
	tt := uint64(HeapBase)
	board := uint64(DataBase)
	for !g.full() {
		g.emit(tt+uint64(g.src.Intn(ttEntries)*16), trace.Read) // probe
		for i := 0; i < 8 && !g.full(); i++ {                   // move gen on board
			g.emit(board+uint64(g.src.Intn(128)*4), trace.Read)
		}
		g.emit(board+uint64(512+g.src.Intn(64)*4), trace.Write) // history update
		if g.src.Intn(4) == 0 {
			g.emit(tt+uint64(g.src.Intn(ttEntries)*16), trace.Write) // store
		}
	}
}
