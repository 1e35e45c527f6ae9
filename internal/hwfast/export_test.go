package hwfast

// StraightLine reports whether the model's residual engines take the
// straight-line kernels (shippedShapes) rather than the lane network and
// the countPatterns tree; the kernel-selection test reads it from the
// external test package, which can import hwblock.
func (st *State) StraightLine() bool { return st.shippedShapes() }
