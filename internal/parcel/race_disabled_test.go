//go:build !race

package parcel

const raceEnabled = false
