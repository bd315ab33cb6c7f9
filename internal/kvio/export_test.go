package kvio

import "os"

// SwapFileSync installs fn as the fsync hook for the external test package
// (which, unlike this one, may import extsort and core) and returns the
// func that restores the previous hook. The hook is a package variable: a
// test that swaps it must not run in parallel with anything that syncs.
func SwapFileSync(fn func(*os.File) error) (restore func()) {
	orig := fileSync
	fileSync = fn
	return func() { fileSync = orig }
}
