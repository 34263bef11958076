// Package runcache spoofs the real cache-key package: NewKeyer,
// schemaID and (Keyer).Key are purity roots, and the taints they reach
// live in the kcore dependency — visible only through published facts.
package runcache

import "xorbp/internal/kcore"

// NewKeyer folds a wall-clock stamp into the key prefix; the reach is
// two calls down in another package.
func NewKeyer(schema string) uint32 {
	n := kcore.Stamp() // want `NewKeyer must stay cache-key pure but reaches Stamp → clock → time\.Now \(wall-clock read\)`
	return kcore.Fold([]string{schema}) + uint32(n)
}

// schemaID is clean: Salt's clock read is allow-justified at its
// source, so the summary arriving here is pure.
func schemaID() string {
	_ = kcore.Salt()
	return "bp-cache-v1"
}

// Keyer keys through an interface it cannot see the implementations
// of.
type Keyer struct {
	codec kcore.Codec
}

// Key derives the key prefix through dynamic dispatch.
func (k *Keyer) Key(spec string) string {
	return k.codec.Name() + "/" + spec // want `\(Keyer\)\.Key must stay cache-key pure but reaches a dynamic call through Codec\.Name \(implementation not statically known\)`
}

var _ = schemaID
