/* Calls the engine's static functions at their limits: one request per line
   of standard input, one answer per line of standard output.  128-bit values
   travel as their high and low 64-bit halves.

     jump delta inc state        ->  the state delta draws on
     interval state inc has_uint32 uinteger max draws
                                 ->  the draws, then state has_uint32 uinteger

   Compile it with the package directory on the include path. */

#include <inttypes.h>
#include <stdio.h>
#include <string.h>

#include "_engine.c"

static int read_wide(u128 *value)
{
    uint64_t high, low;
    if (scanf("%" SCNu64 " %" SCNu64, &high, &low) != 2)
        return 0;
    *value = (u128) high << 64 | low;
    return 1;
}

static void print_wide(u128 value)
{
    printf("%" PRIu64 " %" PRIu64, (uint64_t) (value >> 64), (uint64_t) value);
}

int main(void)
{
    char op[9];
    while (scanf("%8s", op) == 1) {
        if (!strcmp(op, "jump")) {
            u128 delta, inc, state, mult, plus;
            if (!(read_wide(&delta) && read_wide(&inc) && read_wide(&state)))
                return 1;
            jump(delta, inc, &mult, &plus);
            print_wide(state * mult + plus);
            printf("\n");
        } else if (!strcmp(op, "interval")) {
            pcg64 g;
            uint32_t max;
            int draws;
            if (!(read_wide(&g.state) && read_wide(&g.inc)))
                return 1;
            if (scanf("%" SCNu64 " %" SCNu64 " %" SCNu32 " %d", &g.has_uint32, &g.uinteger, &max,
                      &draws) != 4)
                return 1;
            for (int k = 0; k < draws; k++)
                printf("%" PRId32 " ", interval(&g, max));
            print_wide(g.state);
            printf(" %" PRIu64 " %" PRIu64 "\n", g.has_uint32, g.uinteger);
        } else {
            return 1;
        }
    }
    return 0;
}
