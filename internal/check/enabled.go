//go:build gespcheck

package check

// Enabled reports whether the checked build is active. With the
// gespcheck tag every guarded validation in sparse, symbolic, dist and lu
// runs; see the package documentation.
const Enabled = true
