package program

// Layout assigns a starting byte address to every basic block. The
// conventional linker packs blocks densely in order (SequentialLayout);
// BBR's linker inserts gaps so blocks land on fault-free chunks
// (package bbr).
//
// A layout must not change while a workload.Stream reads it: the
// stream resolves a block's address once per block visit, not once per
// instruction.
type Layout interface {
	// BlockAddr returns the starting byte address of the block's first
	// instruction.
	BlockAddr(BlockID) uint64
}

// sequentialLayout packs blocks densely: each block's instructions are
// followed by its literal pool, then the next block.
type sequentialLayout struct {
	addrs []uint64
}

// NewSequentialLayout lays the program out contiguously from base (which
// must be word-aligned). This is the conventional, fault-oblivious
// placement every non-BBR scheme runs with.
func NewSequentialLayout(p *Program, base uint64) Layout {
	if base%4 != 0 {
		//lvlint:ignore nopanic documented alignment guard: layout bases are compile-time constants
		panic("program: layout base must be word-aligned")
	}
	addrs := make([]uint64, len(p.Blocks))
	addr := base
	for i := range p.Blocks {
		addrs[i] = addr
		addr += uint64(4 * p.Blocks[i].Footprint())
	}
	return &sequentialLayout{addrs: addrs}
}

// BlockAddr implements Layout.
func (l *sequentialLayout) BlockAddr(b BlockID) uint64 { return l.addrs[b] }

// ExecutedWords returns how many instruction words of block b execute on
// one dynamic visit given whether its terminating branch was taken. For
// blocks carrying a BBR-appended fall-through jump (ExplicitFall), a
// taken conditional branch skips the appended jump.
func ExecutedWords(b *BasicBlock, taken bool) int {
	if b.ExplicitFall && b.Term == TermBranch && taken {
		return b.Size - 1
	}
	return b.Size
}
