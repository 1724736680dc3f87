package core

import (
	"testing"

	"repro/internal/octree"
	"repro/internal/vec"
)

func TestTreeRefreshUpdatesCOM(t *testing.T) {
	s := plummer(500, 41)
	tree, err := octree.NewBuilder(octree.BuilderOptions{}).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	before := tree.Root().COM
	// Shift all particles: COM must follow after Refresh.
	shift := vec.V3{X: 0.01, Y: -0.02, Z: 0.005}
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Add(shift)
	}
	tree.Refresh()
	got := tree.Root().COM.Sub(before)
	if got.Sub(shift).Norm() > 1e-12 {
		t.Errorf("root COM moved by %v, want %v", got, shift)
	}
	if tree.Root().Mass <= 0 {
		t.Error("mass lost in refresh")
	}
}

func TestRefreshKeepsValidation(t *testing.T) {
	s := plummer(400, 47)
	tree, err := octree.NewBuilder(octree.BuilderOptions{}).Build(s)
	if err != nil {
		t.Fatal(err)
	}
	// No movement: refresh must keep the tree exactly valid.
	tree.Refresh()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}
